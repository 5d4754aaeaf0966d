#!/usr/bin/env python3
"""Checks that FastInterp's dispatch loop keeps IP, SP and Fuel in registers.

Usage: dispatch_regs.py BINARY [--report] [--verbose]

BINARY is any executable that links FastInterp (CI passes the Release
build's tests/fusion_test). The script finds each handler of
`FastInterp::stepImpl<false>` through the relocations of that function's
`Labels` table (so BINARY must be position-independent, as the default
gcc and clang builds are) and names the entries from the SATB_FAST_OPS rows of src/jit/FastCode.h, expanded by the
C preprocessor. From each checked handler it follows the fall-through path,
through direct jumps, to the indirect `jmp` that dispatches the next
instruction, and fails if on that path:

  - an instruction writes stack memory (`(%rsp)` as destination, or a push):
    the loop state was spilled;
  - the fuel test or the fuel decrement has a `(%rsp)` operand;
  - the register that the dispatch reads the next opcode through (IP) was
    loaded from `(%rsp)` memory.

Reloads of other locals from the stack (the frame base `Base`, the object
table) are reported with --verbose but do not fail the check.

Checked handlers: Load, Store, IConst, IInc, Goto and every fused op.
--report prints the same findings and exits 0 (for compilers whose codegen
is not gated). Needs `objdump`, `readelf` and `cpp` on PATH; x86-64 only.
"""

import argparse
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FASTCODE = os.path.join(ROOT, "src", "jit", "FastCode.h")
STEP = "_ZN4satb10FastInterp8stepImplILb0EEENS_9RunStatusEm"
LABELS = "_ZZN4satb10FastInterp8stepImplILb0EEENS_9RunStatusEmE6Labels"
BASE_CHECKED = ("Load", "Store", "IConst", "IInc", "Goto")
MAX_PATH = 400


class Failure(Exception):
    """The binary cannot be checked (a tool failed, a symbol is missing)."""


def run(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        raise Failure(f"{' '.join(cmd)} failed: {r.stderr.strip()}")
    return r.stdout


def op_names():
    """The FastOp names in enum order, and the set of fused ones."""
    with open(FASTCODE) as f:
        text = "".join(l for l in f if not l.lstrip().startswith("#include"))
    text += """
DISPATCH_REGS_BEGIN
#define X(n) BASE n
#define S(K, N, M, R, Rr) BASE K##_##N
#define R(Kind, F, S) FUSED F##S
SATB_FAST_OPS(X, S, R)
"""
    r = subprocess.run(["cpp", "-P", "-xc++", "-"], input=text,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        raise Failure(f"cpp failed: {r.stderr.strip()}")
    out = r.stdout.split("DISPATCH_REGS_BEGIN", 1)[1].split()
    names, fused = [], set()
    for kind, name in zip(out[0::2], out[1::2]):
        names.append(name)
        if kind == "FUSED":
            fused.add(name)
    return names, fused


def symbol(binary, name):
    for line in run(["readelf", "-sW", binary]).splitlines():
        f = line.split()
        if len(f) >= 8 and f[7] == name:
            return int(f[1], 16), int(f[2], 0)
    raise Failure(f"symbol {name} not found in {binary}")


def label_targets(binary, addr, size):
    """Handler addresses of the Labels table at [addr, addr + size)."""
    relocs = {}
    for line in run(["readelf", "-rW", binary]).splitlines():
        f = line.split()
        if len(f) >= 4 and f[2].endswith("RELATIVE"):
            try:
                relocs[int(f[0], 16)] = int(f[3], 16)
            except ValueError:
                continue
    words = [addr + 8 * i for i in range(size // 8)]
    if not all(w in relocs for w in words):
        raise Failure(f"{binary} has no relocation for some Labels entry "
                      "(not a position-independent executable?)")
    return [relocs[w] for w in words]


def disassemble(binary, start, size):
    out = run(["objdump", "-d", "--no-show-raw-insn",
               f"--start-address={start}",
               f"--stop-address={start + size}", binary])
    insns = {}
    order = []
    for line in out.splitlines():
        m = re.match(r"\s*([0-9a-f]+):\s+(\S+)\s*(.*)$", line)
        if not m:
            continue
        a = int(m.group(1), 16)
        mnem, ops = m.group(2), re.sub(r"\s+#.*$|\s+<.*>$", "", m.group(3))
        insns[a] = (mnem, ops.strip())
        order.append(a)
    nxt = {a: b for a, b in zip(order, order[1:])}
    return insns, nxt


def split_ops(ops):
    """AT&T operands, splitting on commas outside parentheses."""
    parts, depth, cur = [], 0, ""
    for c in ops:
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        if c == "," and depth == 0:
            parts.append(cur)
            cur = ""
        else:
            cur += c
    if cur:
        parts.append(cur)
    return [p.strip() for p in parts]


def stack_mem(op):
    return "(%rsp" in op


def follow(insns, nxt, start):
    """The fall-through path from start to an indirect jmp.

    At each conditional branch the fall-through side is tried first; a
    side that leaves the loop (a call, a return) is abandoned for the
    other, so the path found is the one that stays in the loop.
    """
    seen = set()

    def walk(a, path):
        while a in insns and a not in seen and len(path) < MAX_PATH:
            seen.add(a)
            mnem, ops = insns[a]
            path = path + [(a, mnem, ops)]
            if mnem.startswith(("call", "ret", "ud2", "hlt")):
                return None
            if mnem.startswith("jmp"):
                if ops.startswith("*"):
                    return path
                a = int(ops.split()[0], 16)
                continue
            if mnem.startswith("j"):
                found = walk(nxt.get(a), path)
                return found or walk(int(ops.split()[0], 16), path)
            a = nxt.get(a)
        return None

    return walk(start, [])


# A fuel decrement: by one, or by two where GCC folds a fused handler's
# two units into one instruction.
DECREMENT = re.compile(r"^(sub\w*\s+\$0x[12],|dec\w*\s|"
                       r"add\w*\s+\$0xffffffffffffff(ff|fe),|"
                       r"lea\w*\s+-0x[12]\()")
READ_ONLY = ("cmp", "test", "jmp", "prefetch", "div", "idiv", "mul", "bt")


def writes_stack(mnem, o):
    if mnem.startswith("push"):
        return True
    if mnem.startswith(READ_ONLY) or (mnem.startswith("imul") and len(o) == 1):
        return False
    return bool(o) and stack_mem(o[-1])


def reload(path, upto, reg):
    """The instruction before path[upto] that last wrote reg, if it is a
    load from the stack."""
    for a, mnem, ops in reversed(path[:upto]):
        o = split_ops(ops)
        if o and o[-1] == reg:
            if len(o) == 2 and stack_mem(o[0]):
                return f"{a:x}: {mnem} {ops}"
            return None
    return None


def check_path(path):
    """Findings (fatal, notes) for one handler's dispatch path."""
    fatal, notes = [], []
    decrements = 0
    fuel_test = ip_load = None
    for i, (a, mnem, ops) in enumerate(path):
        o = split_ops(ops)
        if writes_stack(mnem, o):
            fatal.append(f"{a:x}: {mnem} {ops}: writes stack memory")
        elif any(stack_mem(x) for x in o):
            notes.append(f"{a:x}: {mnem} {ops}: reads stack memory")
        if DECREMENT.match(f"{mnem} {ops}"):
            decrements += 1
            if stack_mem(o[-1]):
                fatal.append(f"{a:x}: fuel decrement on the stack: {ops}")
        if ((mnem.startswith("test") and len(o) == 2 and o[0] == o[1]) or
                (mnem.startswith("cmp") and o[:1] == ["$0x0"])):
            fuel_test = i
        if mnem.startswith("movzw"):
            ip_load = i
    if decrements == 0:
        fatal.append("no fuel decrement on the dispatch path")
    # The fuel test is the last test against zero: DISPATCH's.
    if fuel_test is None:
        fatal.append("no fuel test on the dispatch path")
    else:
        a, mnem, ops = path[fuel_test]
        fuel = split_ops(ops)[-1]
        if stack_mem(fuel):
            fatal.append(f"{a:x}: fuel test on the stack: {mnem} {ops}")
        elif reload(path, fuel_test, fuel):
            fatal.append(f"fuel {fuel} reloaded from the stack at "
                         f"{reload(path, fuel_test, fuel)}")
    # IP is the register the dispatch reads the next opcode through.
    if ip_load is None:
        fatal.append("no opcode load before the dispatch jmp")
    else:
        a, mnem, ops = path[ip_load]
        m = re.match(r"-?(?:0x[0-9a-f]+)?\((%\w+)", split_ops(ops)[0])
        ip = m.group(1) if m else None
        if ip is None or ip == "%rsp":
            fatal.append(f"{a:x}: opcode read from the stack: {mnem} {ops}")
        elif reload(path, ip_load, ip):
            fatal.append(f"IP {ip} reloaded from the stack at "
                         f"{reload(path, ip_load, ip)}")
    return fatal, notes


def check(args):
    """Prints each checked handler's findings; returns how many failed."""
    names, fused = op_names()
    laddr, lsize = symbol(args.binary, LABELS)
    targets = label_targets(args.binary, laddr, lsize)
    if len(targets) != len(names):
        raise Failure(f"Labels has {len(targets)} entries, "
                      f"FastCode.h names {len(names)} ops")
    saddr, ssize = symbol(args.binary, STEP)
    insns, nxt = disassemble(args.binary, saddr, ssize)

    checked = [n for n in names if n in BASE_CHECKED or n in fused]
    failed = 0
    for name in checked:
        path = follow(insns, nxt, targets[names.index(name)])
        if path is None:
            path, (fatal, notes) = [], (["no path reaches a dispatch jmp"], [])
        else:
            fatal, notes = check_path(path)
        status = "FAIL" if fatal else "ok"
        failed += bool(fatal)
        print(f"{status:4} {name:18} {len(path):3} insns, "
              f"{len(notes)} stack reads")
        for f in fatal:
            print(f"       {f}")
        if args.verbose:
            for n in notes:
                print(f"       note {n}")
            for a, mnem, ops in path:
                print(f"         {a:x}: {mnem} {ops}")
    print(f"# {len(checked) - failed}/{len(checked)} handlers keep IP, SP "
          f"and Fuel in registers")
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("binary")
    ap.add_argument("--report", action="store_true",
                    help="print findings, and any reason the binary cannot "
                         "be checked, but exit 0")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()
    try:
        failed = check(args)
    except Failure as e:
        print(f"dispatch_regs: {e}", file=sys.stderr)
        failed = 1
    return 0 if args.report or failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
