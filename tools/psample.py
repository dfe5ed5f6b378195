#!/usr/bin/env python3
"""Sampling profiler for the benchmark program's busy threads (x86-64 Linux).

  python3 tools/psample.py [--pid PID | --match WORDS] [--delay S]
                           [--seconds S] [--hz N] [--min-cpu F] [--top N]
                           [--by module|function]

It finds the target process (by --pid, or the first process whose command
line contains every word of --match, default "main.exe workload"; it waits
up to 60 s for one to appear), waits --delay seconds (default 3: past the
set-up), then keeps only the threads that used at least --min-cpu of a CPU
(default 0.1) over a 0.5 s probe: the shard loops, not the idle main thread.

Every 1/--hz seconds (default 200) it samples each busy thread once:
  - a thread blocked in a system call is read from /proc/<pid>/task/<tid>/
    syscall without stopping it, and counted under the call's name and,
    for calls on one fd, the fd's kind (pipe, socket, file);
  - a running thread is stopped for an instant with ptrace (PTRACE_SEIZE
    once, then PTRACE_INTERRUPT, PTRACE_GETREGS, PTRACE_CONT per sample)
    and its user program counter is counted under the OCaml module of the
    function it is in (from `nm` on the executable), "runtime" for the
    OCaml runtime's C functions, or the shared object it is in. With
    --by function it is counted under the function symbol itself (the
    OCaml symbol without its numeric suffix, e.g.
    camlPrivagic_server__Server.iterate, or the C function's name).

It attaches only to those threads of that one process, and detaches when it
exits. The output is one block per thread: the share of samples of each
module (or function) or system call, largest first. A last block merges
every busy thread's samples, leaving out the time spent sleeping in
select, pselect6 and nanosleep (clock_nanosleep, glibc's way to it,
included), so its shares are of the time the threads work, whichever
thread ran it.

Typical use, one traced kv-scan run:

  python3 benchsuite/run.py --workload kv-scan --seed 5 --seconds 20 &
  python3 tools/psample.py --seconds 10
"""

import bisect
import ctypes
import os
import subprocess
import sys
import time
from collections import Counter

PTRACE_CONT = 7
PTRACE_GETREGS = 12
PTRACE_DETACH = 17
PTRACE_SEIZE = 0x4206
PTRACE_INTERRUPT = 0x4207
PTRACE_EVENT_STOP = 128
WALL = 0x40000000

# user_regs_struct on x86-64: 27 unsigned longs
REG_ORIG_RAX, REG_RIP, REG_RDI = 15, 16, 14

SYSCALLS = {
    0: "read", 1: "write", 3: "close", 7: "poll", 9: "mmap", 11: "munmap",
    13: "rt_sigaction", 14: "rt_sigprocmask", 16: "ioctl", 17: "pread64",
    19: "readv", 20: "writev", 23: "select", 24: "sched_yield", 25: "mremap",
    28: "madvise", 35: "nanosleep", 43: "accept", 44: "sendto",
    45: "recvfrom", 46: "sendmsg", 47: "recvmsg", 61: "wait4",
    202: "futex", 228: "clock_gettime", 230: "clock_nanosleep",
    232: "epoll_wait", 270: "pselect6", 271: "ppoll", 281: "epoll_pwait",
    288: "accept4",
}
# calls whose first argument is the one fd they act on
FD_CALLS = {0, 1, 3, 17, 19, 20, 43, 44, 45, 46, 47, 288}

libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, tid, data=None):
    if libc.ptrace(req, tid, None, data) == -1:
        e = ctypes.get_errno()
        raise OSError(e, os.strerror(e))


def stop(tid):
    """Stop a seized thread; a signal that arrives first is delivered."""
    ptrace(PTRACE_INTERRUPT, tid)
    while True:
        _, status = os.waitpid(tid, WALL)
        if not os.WIFSTOPPED(status):
            raise OSError("thread %d exited" % tid)
        if status >> 16 == PTRACE_EVENT_STOP:
            return
        ptrace(PTRACE_CONT, tid, os.WSTOPSIG(status))


def flag(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def find_pid(words, wait_s=60.0):
    deadline = time.time() + wait_s
    me = os.getpid()
    while time.time() < deadline:
        for d in os.listdir("/proc"):
            if not d.isdigit() or int(d) == me:
                continue
            try:
                with open("/proc/%s/cmdline" % d, "rb") as f:
                    cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
            except OSError:
                continue
            if all(w in cmd for w in words) and "psample" not in cmd:
                return int(d)
        time.sleep(0.1)
    sys.exit("psample: no process matching %r" % " ".join(words))


def cpu_ticks(pid, tid):
    try:
        with open("/proc/%d/task/%d/stat" % (pid, tid)) as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return int(fields[11]) + int(fields[12])  # utime + stime
    except (OSError, IndexError):
        return None


def busy_threads(pid, min_cpu, probe_s=0.5):
    tids = [int(t) for t in os.listdir("/proc/%d/task" % pid)]
    before = {t: cpu_ticks(pid, t) for t in tids}
    time.sleep(probe_s)
    hz = os.sysconf("SC_CLK_TCK")
    busy = []
    for t in tids:
        a, b = before[t], cpu_ticks(pid, t)
        if a is not None and b is not None and (b - a) / hz / probe_s >= min_cpu:
            busy.append(t)
    return busy


class Symbols:
    """Program counters to OCaml modules, over the executable and the
    process's mappings."""

    def __init__(self, pid):
        exe = os.readlink("/proc/%d/exe" % pid)
        self.maps = []  # (start, end, offset, path)
        with open("/proc/%d/maps" % pid) as f:
            for line in f:
                parts = line.split()
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                path = parts[5] if len(parts) > 5 else ""
                self.maps.append((lo, hi, int(parts[2], 16), path))
        self.maps.sort()
        self.starts = [m[0] for m in self.maps]
        self.exe = exe
        with open(exe, "rb") as f:
            head = f.read(18)
        pie = head[16] == 3  # ET_DYN
        self.base = 0
        if pie:
            self.base = min(lo - off for lo, _, off, path in self.maps if path == exe)
        out = subprocess.run(["nm", "-n", "--defined-only", exe], capture_output=True,
                             text=True).stdout
        self.addrs, self.names = [], []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "tTwW":
                self.addrs.append(int(parts[0], 16) + self.base)
                self.names.append(parts[2])

    def label(self, pc, by):
        i = bisect.bisect_right(self.starts, pc) - 1
        if i < 0 or pc >= self.maps[i][1]:
            return "?"
        path = self.maps[i][3]
        if path != self.exe:
            return os.path.basename(path) or "anon"
        j = bisect.bisect_right(self.addrs, pc) - 1
        if j < 0:
            return "?"
        if by == "function":
            return function_name(self.names[j])
        return ocaml_module(self.names[j])


def ocaml_module(sym):
    """camlStdlib__Map.add_345 -> Stdlib.Map; C code -> runtime."""
    if sym.startswith("caml") and len(sym) > 4 and sym[4].isupper():
        return sym[4:].split(".", 1)[0].replace("__", ".")
    return "runtime"  # the OCaml runtime and C stubs linked in


def function_name(sym):
    """camlStdlib__Map.add_345 -> camlStdlib__Map.add; C names as they are."""
    head, _, tail = sym.rpartition("_")
    return head if sym.startswith("caml") and head and tail.isdigit() else sym


# the calls a loop sleeps in: left out of the merged block
SLEEPS = {"syscall select", "syscall pselect6", "syscall nanosleep",
          "syscall clock_nanosleep"}


def fd_kind(pid, fd):
    try:
        link = os.readlink("/proc/%d/fd/%d" % (pid, fd))
    except OSError:
        return "?"
    for kind in ("pipe", "socket", "anon_inode"):
        if link.startswith(kind):
            return kind
    return "file"


def syscall_label(pid, nr, arg0):
    name = SYSCALLS.get(nr, "sys%d" % nr)
    if nr in FD_CALLS and 0 <= arg0 < 1 << 31:
        name += "/" + fd_kind(pid, arg0)
    return "syscall " + name


def blocked_call(pid, tid):
    """The label of the system call [tid] is blocked in, None if it runs."""
    try:
        with open("/proc/%d/task/%d/syscall" % (pid, tid)) as f:
            fields = f.read().split()
    except OSError:
        return None
    if not fields or fields[0] == "running" or fields[0] == "-1":
        return None
    return syscall_label(pid, int(fields[0]), int(fields[1], 16))


def sample_running(pid, tid, syms, by):
    regs = (ctypes.c_ulong * 27)()
    stop(tid)
    try:
        ptrace(PTRACE_GETREGS, tid, ctypes.addressof(regs))
    finally:
        ptrace(PTRACE_CONT, tid, None)
    orig = ctypes.c_long(regs[REG_ORIG_RAX]).value
    if orig >= 0:  # stopped inside a system call after all
        return syscall_label(pid, orig, regs[REG_RDI])
    return syms.label(regs[REG_RIP], by)


def main(args):
    if "--help" in args or "-h" in args:
        print(__doc__)
        return 0
    by = flag(args, "--by", "module")
    if by not in ("module", "function"):
        sys.exit("psample: --by takes module or function")
    pid = int(flag(args, "--pid", "0")) or find_pid(flag(args, "--match", "main.exe workload").split())
    time.sleep(float(flag(args, "--delay", "3")))
    tids = busy_threads(pid, float(flag(args, "--min-cpu", "0.1")))
    if not tids:
        sys.exit("psample: pid %d has no busy thread" % pid)
    syms = Symbols(pid)
    attached = []
    for t in tids:
        try:
            ptrace(PTRACE_SEIZE, t)
            attached.append(t)
        except OSError as e:
            print("psample: cannot attach to %d: %s" % (t, e), file=sys.stderr)
    counts = {t: Counter() for t in attached}
    period = 1.0 / float(flag(args, "--hz", "200"))
    deadline = time.time() + float(flag(args, "--seconds", "10"))
    try:
        while time.time() < deadline and attached:
            for t in list(attached):
                try:
                    counts[t][blocked_call(pid, t) or sample_running(pid, t, syms, by)] += 1
                except (OSError, ChildProcessError):
                    attached.remove(t)  # the thread exited
            time.sleep(period)
    finally:
        for t in attached:
            try:
                stop(t)
                ptrace(PTRACE_DETACH, t)
            except (OSError, ChildProcessError):
                pass
    top = int(flag(args, "--top", "15"))
    merged = Counter()
    for c in counts.values():
        merged.update({label: k for label, k in c.items() if label not in SLEEPS})
    blocks = [("thread %d" % t, c) for t, c in counts.items()]
    blocks.append(("all busy threads, not sleeping in select/pselect6/nanosleep", merged))
    for name, c in blocks:
        n = sum(c.values())
        print("%s: %d samples" % (name, n))
        for label, k in c.most_common(top):
            print("  %6.1f%%  %s" % (100.0 * k / max(1, n), label))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
