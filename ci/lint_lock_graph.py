#!/usr/bin/env python3
"""Static lock-graph lint: the documented lock hierarchy must match the code.

Three checks, all pure text analysis (no toolchain needed):

  1. Hierarchy drift: the (rank, name) table in src/util/lock_rank.h's
     LockRank enum must match the hierarchy bullet in DESIGN.md section 7
     ("The hierarchy") — same rank numbers, same order, nothing missing,
     nothing extra. The enum is what the runtime validator enforces; the
     DESIGN table is what humans read before adding a lock. They drift
     silently because nothing compiles the prose.
  2. Dead ranks: every enumerator except kUnranked must be constructed
     (or SetRank'd) somewhere under src/ — a rank nobody uses is either
     dead documentation or a lock that silently lost its validation.
  3. Unguarded mutexes: every util::Mutex / util::SharedMutex member
     declared under src/ must be referenced by at least one GUARDED_BY /
     PT_GUARDED_BY / REQUIRES / REQUIRES_SHARED / ACQUIRE annotation in
     the same file, unless allowlisted below with a reason. A mutex no
     annotation mentions protects nothing the thread-safety analysis can
     see — usually a member that lost its annotations in a refactor.

Exit status 0 when clean, 1 with findings on stderr. --root points the
lint at another tree (used by ci/check.sh to assert the checks fail on
the synthetic drift fixture in ci/testdata/lock_graph_drift).
"""

import argparse
import pathlib
import re
import sys

# Mutex members whose protection is a documented protocol rather than
# per-member GUARDED_BY annotations. Keep reasons current: an entry here
# silences check 3 for that member.
ALLOWLIST = {
    ("src/sqlgraph/store.h", "table_locks_"):
        "guards the six rel::Table objects behind WriteLock/ReadLockAll "
        "(sorted acquisition protocol, DESIGN.md section 7), not members "
        "of SqlGraphStore itself",
}

# The shim/validator/explorer layers declare or name mutexes as part of
# their own machinery; they are not lock *users*.
SCAN_EXCLUDE = (
    "src/util/thread_annotations.h",
    "src/util/lock_rank.h",
    "src/util/lock_rank.cc",
    "src/util/sched.h",
    "src/util/sched.cc",
)

MEMBER_RE = re.compile(
    r"(?:^|[^<\w:])(?:util::)?(?:Mutex|SharedMutex)\s+([A-Za-z]\w*_)\s*[{\[;]")
ARRAY_RE = re.compile(
    r"std::array<\s*(?:util::)?(?:Mutex|SharedMutex)\b[^>]*>\s+([A-Za-z]\w*_)")
ENUM_RE = re.compile(r"\bk(\w+)\s*=\s*(\d+)\s*,")
DESIGN_PAIR_RE = re.compile(r"[\w.\-\]]\((\d+)(?:,[^)]*)?\)")


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def parse_enum(root: pathlib.Path, findings: list) -> dict:
    """LockRank enumerators as {name: rank}, excluding kUnranked."""
    path = root / "src/util/lock_rank.h"
    if not path.is_file():
        findings.append(f"{path}: missing (cannot lint lock hierarchy)")
        return {}
    text = strip_comments(path.read_text())
    m = re.search(r"enum class LockRank[^{]*\{(.*?)\};", text, flags=re.S)
    if m is None:
        findings.append(f"{path}: LockRank enum not found")
        return {}
    ranks = {}
    for name, value in ENUM_RE.findall(m.group(1)):
        if name != "Unranked":
            ranks[name] = int(value)
    if not ranks:
        findings.append(f"{path}: LockRank enum has no ranked entries")
    return ranks


def parse_design(root: pathlib.Path, findings: list) -> list:
    """Rank numbers from DESIGN.md's hierarchy bullet, in written order."""
    path = root / "DESIGN.md"
    if not path.is_file():
        findings.append(f"{path}: missing (cannot lint lock hierarchy)")
        return []
    text = path.read_text()
    marker = text.find("**The hierarchy**")
    if marker < 0:
        findings.append(f"{path}: '**The hierarchy**' bullet not found")
        return []
    span = re.search(r"`([^`]+)`", text[marker:])
    if span is None:
        findings.append(f"{path}: hierarchy bullet has no backtick table")
        return []
    return [int(v) for v in DESIGN_PAIR_RE.findall(span.group(1))]


def check_hierarchy(ranks: dict, design: list, findings: list) -> None:
    expected = sorted(ranks.values())
    by_value = {v: k for k, v in ranks.items()}
    for v in expected:
        if v not in design:
            findings.append(
                f"DESIGN.md hierarchy drift: rank {v} (LockRank::k"
                f"{by_value[v]}) is in src/util/lock_rank.h but missing "
                "from the section-7 hierarchy table")
    for v in design:
        if v not in expected:
            findings.append(
                f"DESIGN.md hierarchy drift: rank {v} appears in the "
                "section-7 hierarchy table but has no LockRank enumerator")
    if sorted(design) == expected and design != expected:
        findings.append(
            "DESIGN.md hierarchy drift: section-7 table lists the right "
            f"ranks in the wrong order ({design} vs {expected})")


def source_files(root: pathlib.Path):
    src = root / "src"
    if not src.is_dir():
        return
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        if rel in SCAN_EXCLUDE:
            continue
        yield rel, path.read_text()


def check_dead_ranks(root: pathlib.Path, ranks: dict, findings: list) -> None:
    used = set()
    for _, text in source_files(root):
        for m in re.finditer(r"LockRank::k(\w+)", text):
            used.add(m.group(1))
    for name in sorted(ranks):
        if name not in used:
            findings.append(
                f"dead rank: LockRank::k{name} ({ranks[name]}) is never "
                "constructed or SetRank'd under src/")


def check_guarded_members(root: pathlib.Path, findings: list) -> None:
    found_any = False
    for rel, text in source_files(root):
        code = strip_comments(text)
        members = set(MEMBER_RE.findall(code)) | set(ARRAY_RE.findall(code))
        for member in sorted(members):
            found_any = True
            if (rel, member) in ALLOWLIST:
                continue
            uses = re.findall(
                r"(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|REQUIRES_SHARED"
                r"|ACQUIRE|ACQUIRE_SHARED)\(\s*" + re.escape(member),
                code)
            if not uses:
                findings.append(
                    f"{rel}: mutex member '{member}' has no GUARDED_BY/"
                    "REQUIRES annotation in this file (add annotations, "
                    "or allowlist it in ci/lint_lock_graph.py with the "
                    "protocol that protects it)")
    if not found_any:
        findings.append("src/: no mutex members found (wrong --root?)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="repo root to lint (default: this script's repository)")
    args = ap.parse_args()

    findings: list = []
    ranks = parse_enum(args.root, findings)
    design = parse_design(args.root, findings)
    if ranks and design:
        check_hierarchy(ranks, design, findings)
    if ranks:
        check_dead_ranks(args.root, ranks, findings)
    check_guarded_members(args.root, findings)

    if findings:
        for f in findings:
            print(f"lint_lock_graph: {f}", file=sys.stderr)
        print(f"lint_lock_graph: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("lint_lock_graph: ok "
          f"({len(ranks)} ranks, hierarchy table in sync)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
