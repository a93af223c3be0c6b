#!/usr/bin/env python3
"""Summarize stack samples written by the stackprof sampler (sampler.c).

    python3 scripts/stackprof/report.py [--exe BINARY] [--top N] FILE...

Each FILE is one process's `<prefix>.<pid>` dump. Addresses are placed in
their object through the dump's copy of /proc/self/maps and resolved to
function names with `addr2line -f -C` (falling back to the object's
dynamic symbol table, `nm -D`, for stripped libraries such as libc).

Three tables follow one header line:

* self: the function holding the sampled pc (the real function, not an
  inlined callee). A leaf outside the binary (malloc,
  memcpy, the kernel's vdso) is charged to its first caller inside it,
  so library time shows up where the program spends it;
* library leaves: the leaves outside the binary, by function;
* inclusive: every binary function on the stack, inlined ones included,
  counted once per sample.

ITIMER_PROF advances with the kernel's CPU-time accounting, so the
effective rate is bounded by the scheduler tick (often 250 Hz) whatever
interval the sampler asked for; compare shares, not sample counts.

The binary is each dump's own executable (its `# exe` line), or `--exe`
for all of them. Exit
status 0 on success, 1 when no dump could be read.
"""
import argparse
import bisect
import collections
import os
import subprocess
import sys


class Mapping:
    __slots__ = ("start", "end", "offset", "path")

    def __init__(self, start, end, offset, path):
        self.start, self.end, self.offset, self.path = start, end, offset, path


def parse_dump(path):
    header, maps, stacks = {}, [], []
    section = None
    with open(path, errors="replace") as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# ") and section is None:
                key, _, value = line[2:].partition(" ")
                header[key] = value
            elif line in ("[maps]", "[stacks]"):
                section = line
            elif section == "[maps]":
                fields = line.split(None, 5)
                if len(fields) < 6 or not fields[5].startswith("/"):
                    continue
                lo, hi = (int(x, 16) for x in fields[0].split("-"))
                maps.append(Mapping(lo, hi, int(fields[2], 16), fields[5]))
            elif section == "[stacks]" and line:
                stacks.append([int(x, 16) for x in line.split()])
    if "stackprof" not in header:
        raise ValueError("not a stackprof dump")
    maps.sort(key=lambda m: m.start)
    return header, maps, stacks


def is_pie_or_shared(path):
    """ELF type: ET_DYN objects are position independent."""
    try:
        with open(path, "rb") as f:
            ident = f.read(18)
    except OSError:
        return True
    return len(ident) == 18 and int.from_bytes(ident[16:18], "little") == 3


class Resolver:
    """Maps (object, address-in-object) pairs to function names."""

    def __init__(self):
        self.names = {}
        self.dynsyms = {}

    def object_address(self, mapping, addr):
        if is_pie_or_shared(mapping.path):
            return addr - mapping.start + mapping.offset
        return addr

    def resolve_all(self, wanted):
        """wanted: {object path: set of addresses in the object}."""
        for path, addrs in wanted.items():
            addrs = sorted(addrs)
            chains = self.addr2line(path, addrs)
            for addr in addrs:
                chain = chains.get(addr)
                if not chain or chain[-1] == "??":
                    chain = (self.nearest_dynsym(path, addr),)
                self.names[(path, addr)] = chain

    @staticmethod
    def addr2line(path, addrs):
        """{address: (innermost inlined function, ..., real function)}."""
        try:
            out = subprocess.run(
                ["addr2line", "-a", "-i", "-f", "-C", "-e", path] +
                [hex(a) for a in addrs],
                capture_output=True, text=True, check=False).stdout
        except OSError:
            return {}
        # Per address: the address line, then a function line and a
        # file:line line for each inlining level, innermost first.
        chains, addr, names = {}, None, []
        lines = out.splitlines()
        i = 0
        while i < len(lines):
            line = lines[i]
            if line.startswith("0x"):
                if addr is not None:
                    chains[addr] = tuple(names)
                addr, names = int(line, 16), []
                i += 1
            else:
                # Without line info the name is just the nearest exported
                # symbol, even for an internal function far past its end.
                fileline = lines[i + 1] if i + 1 < len(lines) else "??"
                names.append("??" if fileline.startswith("??") else line)
                i += 2
        if addr is not None:
            chains[addr] = tuple(names)
        return chains

    def nearest_dynsym(self, path, addr):
        """An exported symbol holding `addr`, or the nearest one below it
        (stripped libraries keep no names for internal functions)."""
        if path not in self.dynsyms:
            table = []
            try:
                out = subprocess.run(
                    ["nm", "-D", "-S", "--defined-only", path],
                    capture_output=True, text=True, check=False).stdout
            except OSError:
                out = ""
            for line in out.splitlines():
                fields = line.split()
                if len(fields) == 4 and fields[2] in "TtWi":
                    table.append((int(fields[0], 16), int(fields[1], 16),
                                  fields[3].split("@")[0]))
            table.sort()
            self.dynsyms[path] = table
        table = self.dynsyms[path]
        i = bisect.bisect_right(table, addr, key=lambda entry: entry[0]) - 1
        base = os.path.basename(path)
        if i < 0:
            return f"{base}+{addr:#x}"
        start, size, name = table[i]
        if addr < start + size:
            return f"{name} ({base})"
        # An internal function (malloc's and memcpy's workers in libc):
        # group by the exported symbol it follows.
        return f"[{base} internal, after {name}]"

    def chain(self, path, addr):
        return self.names.get((path, addr), ("??",))


def locate(maps, starts, addr):
    i = bisect.bisect_right(starts, addr) - 1
    if i >= 0 and maps[i].start <= addr < maps[i].end:
        return maps[i]
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dumps", nargs="+", help="sampler output files")
    parser.add_argument("--exe", help="the binary time is charged to")
    parser.add_argument("--top", type=int, default=25,
                        help="rows per table (default 25)")
    args = parser.parse_args()

    dumps = []
    for path in args.dumps:
        try:
            dumps.append(parse_dump(path))
        except (OSError, ValueError) as exc:
            print(f"stackprof: skipping {path}: {exc}", file=sys.stderr)
    if not dumps:
        print("stackprof: no dump could be read", file=sys.stderr)
        return 1

    # Place every frame in its object; frames above the leaf are return
    # addresses, so step back one byte to land inside the call.
    resolver = Resolver()
    wanted = collections.defaultdict(set)
    placed_stacks = []
    binaries = collections.Counter()
    for header, maps, stacks in dumps:
        exe = os.path.realpath(args.exe or header.get("exe", ""))
        binaries[exe] += len(stacks)
        starts = [m.start for m in maps]
        for stack in stacks:
            placed = []
            for depth, addr in enumerate(stack):
                m = locate(maps, starts, addr if depth == 0 else addr - 1)
                if m is None:
                    placed.append(("[unknown]", 0))
                    continue
                obj_addr = resolver.object_address(
                    m, addr if depth == 0 else addr - 1)
                wanted[m.path].add(obj_addr)
                placed.append((m.path, obj_addr))
            placed_stacks.append((exe, placed))
    resolver.resolve_all(wanted)

    def chain(frame):
        path, addr = frame
        if path == "[unknown]":
            return ("[unknown]",)
        return resolver.chain(path, addr)

    def fn(frame):
        """The real (outermost) function holding the frame's address."""
        return chain(frame)[-1]

    self_counts = collections.Counter()
    lib_counts = collections.Counter()
    incl_counts = collections.Counter()
    total = 0
    for exe, placed in placed_stacks:
        if not placed:
            continue
        total += 1
        leaf = placed[0]
        in_exe = [f for f in placed if os.path.realpath(f[0]) == exe]
        if os.path.realpath(leaf[0]) != exe:
            lib_counts[fn(leaf)] += 1
        self_counts[fn(in_exe[0]) if in_exe else fn(leaf)] += 1
        for name in {name for f in in_exe for name in chain(f)}:
            incl_counts[name] += 1

    dropped = sum(int(h.get("dropped", "0")) for h, _, _ in dumps)
    interval = dumps[0][0].get("interval_us", "?")
    print(f"stackprof report: {total} samples from {len(dumps)} process(es), "
          f"interval {interval} us, {dropped} dropped")
    for exe, count in binaries.most_common():
        print(f"  binary {exe}: {count} samples")

    def table(title, counts):
        print(f"\n== {title} ==")
        print(f"{'share':>7} {'samples':>8}  function")
        for name, count in counts.most_common(args.top):
            share = 100.0 * count / total if total else 0.0
            print(f"{share:6.1f}% {count:8d}  {name}")

    table("self (library leaves charged to their first caller in the binary)",
          self_counts)
    table("library leaves", lib_counts)
    table("inclusive", incl_counts)
    return 0


if __name__ == "__main__":
    sys.exit(main())
