// Shared pieces of the repository benchmark: run options and results, the
// in-memory span recorder used by traced runs, and small statistics
// helpers. Everything here lives in the benchmark; the program under test
// is only reached through its public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: replace one reference answer with a wrong one, so the
  /// run must report at least one failed operation.
  bool plant_wrong = false;
};

/// Directory (relative to the working directory) for WAL stores and trace
/// files; created on demand.
inline constexpr char kOutDir[] = ".bench_out";

/// What one workload run hands back to main(). `end_to_end` and
/// `per_layer` are keyed by metric name; main() checks them against the
/// fixed metric tables and prints the requested set.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Human-readable notes for stderr (mismatch details and the like).
  std::vector<std::string> notes;
};

RunResult RunDbpedia(const Options& opts);
RunResult RunLinkBench(const Options& opts, bool paged);

// ------------------------------------------------------------- clock ----

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- spans ----

/// One recorded call into a module: name, start, end, parent span and the
/// operation it served (0 = set-up or probe work outside any operation).
struct Span {
  const char* name;  // static string; spans never own their names
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the span vector, -1 for a root
  uint64_t op;
};

/// In-memory span recorder. Disabled, a scope costs one branch; enabled,
/// it appends to a vector that is written out once when the run ends.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 16);
  }

  bool on() const { return on_; }
  void set_op(uint64_t op) { op_ = op; }

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t->on_ ? t : nullptr) {
      if (t_ == nullptr) return;
      index_ = static_cast<int32_t>(t_->spans_.size());
      t_->spans_.push_back({name, NowNs(), 0, t_->current_, t_->op_});
      t_->current_ = index_;
    }
    ~Scope() {
      if (t_ == nullptr) return;
      Span& s = t_->spans_[static_cast<size_t>(index_)];
      s.end_ns = NowNs();
      t_->current_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int32_t index_ = -1;
  };

  /// Durations (ns) of every span called `name`.
  std::vector<double> Durations(const char* name) const;

  /// Writes every span as one JSON document (one span per line).
  bool WriteJson(const std::string& path) const;

 private:
  bool on_;
  int32_t current_ = -1;
  uint64_t op_ = 0;
  std::vector<Span> spans_;
};

// ------------------------------------------------- reference process ----

/// A child process that holds the benchmark's reference structures (the
/// NativeStore, the interpreter, the generated graph) and computes the
/// reference answers, so that VmHWM of the measured process counts only
/// SQLGraph and the harness. Start() forks before the measured process has
/// built anything and returns once the child is ready; from then on the
/// child works only inside Call(), never while an operation is timed.
class ReferenceProcess {
 public:
  /// Answers one request; runs in the child.
  using Handler = std::function<std::string(const std::string& request)>;
  /// Runs once in the child: builds its state and returns the handler, or
  /// sets `*error` and returns an empty handler.
  using Init = std::function<Handler(std::string* error)>;

  static std::unique_ptr<ReferenceProcess> Start(const Init& init,
                                                 std::string* error);
  /// Closes the channel (the child then exits) and waits for the child.
  ~ReferenceProcess();
  ReferenceProcess(const ReferenceProcess&) = delete;
  ReferenceProcess& operator=(const ReferenceProcess&) = delete;

  /// Sends `request` and waits for the reply; false if the child is gone.
  bool Call(const std::string& request, std::string* reply);

 private:
  ReferenceProcess(pid_t pid, int to_child, int from_child)
      : pid_(pid), to_child_(to_child), from_child_(from_child) {}
  pid_t pid_;
  int to_child_;
  int from_child_;
};

/// Encoding of reference answers on the channel: fixed-width integers and
/// length-prefixed strings.
class Encoder {
 public:
  void I64(int64_t v) { data_.append(reinterpret_cast<const char*>(&v), sizeof v); }
  void Str(const std::string& s) {
    I64(static_cast<int64_t>(s.size()));
    data_ += s;
  }
  std::string& data() { return data_; }

 private:
  std::string data_;
};

class Decoder {
 public:
  explicit Decoder(const std::string& data) : data_(data) {}
  /// Reads one integer; 0 and ok() false past the end.
  int64_t I64();
  std::string Str();
  /// True while every read so far was inside the data.
  bool ok() const { return ok_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// -------------------------------------------------------- statistics ----
// Kept apart from util/stats.h and util/stopwatch.h on purpose: a change
// to the program under test must not change how its figures are computed.

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty input.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }
/// Geometric mean of positive values; 0 for an empty input.
double GeoMean(const std::vector<double>& v);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMiB();

/// Creates `dir` (and parents); removes it recursively. Both best effort
/// with an error string on failure.
bool MakeDirs(const std::string& dir, std::string* error);
bool RemoveTree(const std::string& dir, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
