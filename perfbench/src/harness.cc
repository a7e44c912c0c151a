#include "harness.h"

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

bool WriteAll(int fd, const char* p, size_t n) {
  while (n > 0) {
    const ssize_t k = write(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

bool ReadAll(int fd, char* p, size_t n) {
  while (n > 0) {
    const ssize_t k = read(fd, p, n);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<size_t>(k);
  }
  return true;
}

/// One message on the channel: its length, then its bytes.
bool WriteFrame(int fd, const std::string& msg) {
  const uint64_t n = msg.size();
  return WriteAll(fd, reinterpret_cast<const char*>(&n), sizeof n) &&
         WriteAll(fd, msg.data(), msg.size());
}

bool ReadFrame(int fd, std::string* msg) {
  uint64_t n = 0;
  if (!ReadAll(fd, reinterpret_cast<char*>(&n), sizeof n)) return false;
  msg->resize(n);
  return ReadAll(fd, msg->data(), n);
}

}  // namespace

std::unique_ptr<ReferenceProcess> ReferenceProcess::Start(const Init& init,
                                                          std::string* error) {
  int down[2], up[2];  // parent → child, child → parent
  if (pipe(down) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (pipe(up) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(down[0]);
    close(down[1]);
    return nullptr;
  }
  std::fflush(nullptr);  // the child must not write the parent's buffers again
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    for (int fd : {down[0], down[1], up[0], up[1]}) close(fd);
    return nullptr;
  }
  if (pid == 0) {
    close(down[1]);
    close(up[0]);
    std::string init_error;
    const Handler handler = init(&init_error);
    if (!handler && init_error.empty()) init_error = "reference set-up failed";
    if (!WriteFrame(up[1], init_error) || !handler) _exit(1);
    std::string request;
    while (ReadFrame(down[0], &request)) {
      if (!WriteFrame(up[1], handler(request))) _exit(1);
    }
    _exit(0);  // the parent closed the channel
  }
  close(down[0]);
  close(up[1]);
  // A child that died must show as a failed Call, not kill the parent.
  signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<ReferenceProcess> proc(new ReferenceProcess(pid, down[1], up[0]));
  std::string ready;
  if (!ReadFrame(up[0], &ready)) {
    *error = "reference process ended during set-up";
    return nullptr;
  }
  if (!ready.empty()) {
    *error = ready;
    return nullptr;
  }
  return proc;
}

ReferenceProcess::~ReferenceProcess() {
  close(to_child_);
  close(from_child_);
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

bool ReferenceProcess::Call(const std::string& request, std::string* reply) {
  return WriteFrame(to_child_, request) && ReadFrame(from_child_, reply);
}

int64_t Decoder::I64() {
  int64_t v = 0;
  if (pos_ + sizeof v > data_.size()) {
    ok_ = false;
    return 0;
  }
  std::memcpy(&v, data_.data() + pos_, sizeof v);
  pos_ += sizeof v;
  return v;
}

std::string Decoder::Str() {
  const int64_t n = I64();
  if (n < 0 || static_cast<size_t>(n) > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string s = data_.substr(pos_, static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return s;
}

std::vector<double> Tracer::Durations(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"time_unit\":\"ns\",\"spans\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                 "\"parent\":%d,\"op\":%llu}%s\n",
                 i, s.name, static_cast<long long>(s.start_ns - t0),
                 static_cast<long long>(s.end_ns - t0), s.parent,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB → MiB
    }
  }
  return 0;
}

bool MakeDirs(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) *error = dir + ": " + ec.message();
  return !ec;
}

bool RemoveTree(const std::string& dir, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (ec) *error = dir + ": " + ec.message();
  return !ec;
}

}  // namespace perfbench
