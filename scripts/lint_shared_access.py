#!/usr/bin/env python3
"""Checks the shared-memory access discipline of algorithm code.

Two scopes, one idea: every shared access in algorithm code must go
through the layer that makes it visible to the model checker.

Simulator scope (src/core, src/mutex, src/derived, minus *_rt.* files):
algorithm implementations must touch shared registers only through the
timed awaiters (`co_await env.read(...)` / `co_await env.write(...)`).
The untimed escape hatches of sim::Register — peek()/poke() and
load_linearized()/store_linearized() — bypass the timing model, the
monitors and the mcheck explorer, so any use in algorithm code is a
layering bug.  Deliberate uses (monitor peeks after the run, memory-
failure injection between events) carry an `untimed-ok:` annotation.

Real-thread scope (src/rt, src/mutex/mutex_rt.*, src/mutex/
lock_adapters.hpp, src/core/consensus_rt.*, src/derived/derived_rt.*,
src/registers/atomic_register.hpp and register_array.hpp and the
src/common/pinned_slots.hpp table under them, plus the
adaptive controllers in src/adapt/ that rt threads may share): rt
algorithm code is templated over the Atomics policy
(src/rt/atomics_policy.hpp) so the same source runs on std::atomic in
production and through the mcheck interposition seam (src/rt/shim/)
under verification.  Two rules:

  * raw `std::atomic` / `std::atomic_flag` cells bypass the seam — the
    checker cannot see or reorder those accesses.  Harness-only
    instrumentation carries a `raw-atomic-ok:` annotation.
  * non-seq_cst memory orders are invisible to the shim, which models
    every access as seq_cst (one linearization order); a relaxed/acquire/
    release order is therefore *unverified* strength reduction and needs
    a `mo-ok:` annotation arguing its correctness on the same line or the
    line above.

The policy definition itself (atomics_policy.hpp) and the seam
implementation (src/rt/shim/) are the two sides of the boundary and are
exempt.

Exit status: 0 when clean, 1 with findings (one per line, file:line).
"""

import re
import sys
from pathlib import Path

SIM_DIRS = ("src/core", "src/mutex", "src/derived")
SIM_PATTERN = re.compile(r"\.peek\(|\.poke\(|load_linearized|store_linearized")
SIM_ANNOTATION = "untimed-ok"

RT_FILES = (
    "src/rt",
    "src/mutex/mutex_rt.hpp",
    "src/mutex/mutex_rt.cpp",
    "src/mutex/lock_adapters.hpp",
    "src/core/consensus_rt.hpp",
    "src/core/consensus_rt.cpp",
    "src/derived/derived_rt.hpp",
    "src/derived/derived_rt.cpp",
    "src/registers/atomic_register.hpp",
    "src/registers/register_array.hpp",
    "src/common/pinned_slots.hpp",
    # Adaptive controllers may be shared by rt threads (AtomicAimd), so
    # the whole directory — including the per-channel estimator and the
    # timeliness graph — carries the same annotation discipline.
    "src/adapt",
    # The ABD client consumes a shared DeltaController; keep its use of
    # the controller surface under the same scrutiny.
    "src/msg/abd.hpp",
    "src/msg/abd.cpp",
)
RT_EXEMPT = ("src/rt/shim", "src/rt/atomics_policy.hpp")
RAW_ATOMIC_PATTERN = re.compile(r"std::atomic\s*<|std::atomic_flag")
RAW_ATOMIC_ANNOTATION = "raw-atomic-ok"
WEAK_ORDER_PATTERN = re.compile(
    r"memory_order_(?:relaxed|acquire|release|acq_rel|consume)"
)
WEAK_ORDER_ANNOTATION = "mo-ok"


def strip_comments(line: str) -> str:
    """Drops // comments so prose mentioning std::atomic is not a finding."""
    return line.split("//", 1)[0]


def iter_sources(root: Path, spec):
    for entry in spec:
        path = root / entry
        candidates = sorted(path.rglob("*")) if path.is_dir() else [path]
        for candidate in candidates:
            if candidate.suffix in (".hpp", ".cpp") and candidate.exists():
                yield candidate


def scan_file(path: Path, rules):
    """Yields (lineno, line, message) per rule violation.

    An annotation on the offending line or on the line directly above
    covers it (multi-line calls put several memory_order arguments under
    one annotated first line).
    """
    lines = path.read_text(encoding="utf-8").splitlines()
    for lineno, line in enumerate(lines, start=1):
        code = strip_comments(line)
        annotated_here = line
        annotated_above = lines[lineno - 2] if lineno >= 2 else ""
        for pattern, annotation, message in rules:
            if not pattern.search(code):
                continue
            if annotation in annotated_here or annotation in annotated_above:
                continue
            yield lineno, line.strip(), message


def findings(root: Path):
    sim_rules = [
        (SIM_PATTERN, SIM_ANNOTATION, "untimed shared access in algorithm code")
    ]
    for path in iter_sources(root, SIM_DIRS):
        if "_rt." in path.name or path.name == "lock_adapters.hpp":
            continue
        for lineno, line, message in scan_file(path, sim_rules):
            yield path.relative_to(root), lineno, line, message

    rt_rules = [
        (
            RAW_ATOMIC_PATTERN,
            RAW_ATOMIC_ANNOTATION,
            "raw std::atomic bypasses the Atomics policy seam",
        ),
        (
            WEAK_ORDER_PATTERN,
            WEAK_ORDER_ANNOTATION,
            "non-seq_cst order is unverified by the shim",
        ),
    ]
    exempt = tuple(str(root / e) for e in RT_EXEMPT)
    for path in iter_sources(root, RT_FILES):
        if str(path).startswith(exempt):
            continue
        for lineno, line, message in scan_file(path, rt_rules):
            yield path.relative_to(root), lineno, line, message


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent.parent
    bad = list(findings(root))
    for path, lineno, line, message in bad:
        print(f"{path}:{lineno}: {message}: {line}")
    if bad:
        print(
            f"\n{len(bad)} shared-access finding(s); route the access through\n"
            f"the timed awaiters / the Atomics policy, or annotate deliberate\n"
            f"uses with '// {SIM_ANNOTATION}: <reason>',"
            f" '// {RAW_ATOMIC_ANNOTATION}: <reason>' or"
            f" '// {WEAK_ORDER_ANNOTATION}: <reason>'.",
            file=sys.stderr,
        )
        return 1
    print(
        "lint_shared_access: clean "
        f"({', '.join(SIM_DIRS)}; rt seam: {', '.join(RT_FILES)})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
