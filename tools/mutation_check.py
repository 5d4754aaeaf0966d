#!/usr/bin/env python3
"""Check that the test suite still kills every known-bad collector.

Each tools/mutants/*.patch plants one known bug in src/. Its header, the
text before the first `diff --git` line, names it and says how to kill it:

    Mutant: what the bug is (continuation lines are indented)
    Target: the CMake target(s) holding the killing tests
    Tests:  a ctest -R regex
    Repeat: the budget: each matching test runs until it fails, at most
            this many times (ctest --repeat until-fail)

The script copies the tracked files of this repository into a work
directory, builds the targets there once (RelWithDebInfo, so the elision
audit is compiled in), and checks that the named tests pass unmutated. Then,
one patch at a time, it applies the patch with `git apply`, rebuilds
incrementally, runs the tests, reports the first test that failed (the
mutant is killed, by that test) or that none did (it survived), and
reverts the patch.

A patch that no longer applies, a mutant that does not build, a baseline
failure, a ctest error with no failed test, and a survivor each make the
exit status 1, so the catalog has to keep pace with src/. src/ itself
carries no mutant switch.

Usage:
    python3 tools/mutation_check.py [--work DIR] [--jobs N] [--only NAME]...
"""

import argparse
import filecmp
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants"
TEST_TIMEOUT_S = 300


class Mutant:
    def __init__(self, path):
        self.path = path
        self.name = path.stem
        fields = {}
        key = None
        for line in path.read_text().splitlines():
            if line.startswith("diff --git"):
                break
            if line[:1].isspace() and key:
                fields[key] += " " + line.strip()
            elif ":" in line:
                key, _, value = line.partition(":")
                key = key.strip().lower()
                fields[key] = value.strip()
        missing = {"mutant", "target", "tests", "repeat"} - fields.keys()
        if missing:
            raise SystemExit(
                f"{path}: header lacks {', '.join(sorted(missing))}")
        self.what = fields["mutant"]
        self.targets = fields["target"].split()
        self.tests = fields["tests"]
        self.repeat = int(fields["repeat"])


def run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, text=True, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)


def sync_tree(dest):
    """Copies the tracked files (as they are in the working tree) into
    dest, rewriting only changed ones so the rebuild stays incremental."""
    listed = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src, dst = ROOT / rel, dest / rel
        if not src.is_file():
            continue
        if dst.is_file() and filecmp.cmp(src, dst, shallow=False):
            continue
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(src, dst)


def build(tree, targets, jobs):
    if not (tree / "build" / "CMakeCache.txt").exists():
        r = run(["cmake", "-B", "build", "-S", ".",
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], tree)
        if r.returncode:
            return r
    return run(["cmake", "--build", "build", "-j", str(jobs), "--target",
                *targets], tree)


def ctest(tree, regex, repeat):
    """Runs the tests matching regex; returns the ctest result and the
    (name, status) of each failed test."""
    r = run(["ctest", "--test-dir", "build", "-R", regex, "--no-tests=error",
             "--timeout", str(TEST_TIMEOUT_S),
             "--repeat", f"until-fail:{repeat}"], tree)
    # Parameterized test names may hold spaces and parentheses; the
    # status is the last parenthesized group.
    failed = re.findall(r"^\s*\d+ - (.+) \(([^()]*)\)\s*$", r.stdout, re.M)
    return r, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--work", type=Path,
                    help="work directory (kept between runs for incremental "
                         "rebuilds; default: a fresh temporary directory)")
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 2)
    ap.add_argument("--only", action="append", default=[],
                    help="check only this mutant (file stem); repeatable")
    args = ap.parse_args()

    mutants = [Mutant(p) for p in sorted(MUTANTS.glob("*.patch"))]
    if args.only:
        mutants = [m for m in mutants if m.name in args.only]
    if not mutants:
        raise SystemExit("no mutants selected")
    work = args.work or Path(tempfile.mkdtemp(prefix="mutants-"))
    tree = work / "tree"
    tree.mkdir(parents=True, exist_ok=True)
    # Its own repository, so `git apply` patches this tree even when the
    # work directory lies inside another checkout.
    if not (tree / ".git").exists():
        run(["git", "init", "-q"], tree)
    start = time.monotonic()
    sync_tree(tree)
    targets = sorted({t for m in mutants for t in m.targets})

    print(f"work tree: {tree}", flush=True)
    r = build(tree, targets, args.jobs)
    if r.returncode:
        print(r.stdout)
        raise SystemExit("the unmutated tree does not build")
    for regex in sorted({m.tests for m in mutants}):
        r, failed = ctest(tree, regex, 1)
        if r.returncode:
            print(r.stdout)
            raise SystemExit(f"unmutated tree fails {regex}: {failed}")
    print(f"baseline built and passing in {time.monotonic() - start:.0f} s",
          flush=True)

    bad = 0
    for m in mutants:
        t0 = time.monotonic()
        patch = str(m.path)
        if run(["git", "apply", "--check", patch], tree).returncode:
            print(f"{m.name}: DOES NOT APPLY ({m.what})", flush=True)
            bad += 1
            continue
        run(["git", "apply", patch], tree)
        try:
            r = build(tree, m.targets, args.jobs)
            if r.returncode:
                print(r.stdout[-4000:])
                verdict, bad = "DOES NOT BUILD", bad + 1
            else:
                r, failed = ctest(tree, m.tests, m.repeat)
                if failed:
                    name, why = failed[0]
                    verdict = f"killed by {name} ({why})"
                    if len(failed) > 1:
                        verdict += f" and {len(failed) - 1} more"
                elif r.returncode:
                    # No test failed, yet ctest did: not a kill.
                    print(r.stdout[-4000:])
                    verdict, bad = (f"CTEST ERROR (exit {r.returncode})",
                                    bad + 1)
                else:
                    verdict, bad = (f"SURVIVED {m.repeat} run(s) of "
                                    f"{m.tests}"), bad + 1
        finally:
            run(["git", "apply", "-R", patch], tree)
        print(f"{m.name}: {verdict} [{time.monotonic() - t0:.0f} s]",
              flush=True)

    # Leave the work tree unmutated and built for the next run.
    build(tree, targets, args.jobs)
    print(f"{len(mutants) - bad}/{len(mutants)} mutants killed, "
          f"{time.monotonic() - start:.0f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
