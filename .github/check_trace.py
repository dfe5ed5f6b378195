"""Validate a Chrome trace written by `privagic ... --trace`.

usage: check_trace.py TRACE.json PIDS [SHARDS]

Requires valid JSON; every B slice closed by an E of the same name on
the same (pid, tid), in order, and nothing left open; exactly PIDS
processes (clock domains: pid 1 virtual cycles, pid 2 wall-clock us);
and, when SHARDS is given, VM tracks (pid 1) labelled with exactly that
many shards (s0/..., s1/..., ...).
"""
import json
import sys

path, want_pids = sys.argv[1], int(sys.argv[2])
want_shards = int(sys.argv[3]) if len(sys.argv) > 3 else None
evs = json.load(open(path))["traceEvents"]
names = {(e["pid"], e["tid"]): e["args"]["name"]
         for e in evs if e["name"] == "thread_name"}
stacks, unmatched = {}, 0
for e in evs:
    key = (e["pid"], e["tid"])
    if e["ph"] == "B":
        stacks.setdefault(key, []).append(e["name"])
    elif e["ph"] == "E":
        open_ = stacks.get(key, [])
        if open_ and open_[-1] == e["name"]:
            open_.pop()
        else:
            unmatched += 1
left_open = sum(len(s) for s in stacks.values())
pids = sorted({e["pid"] for e in evs})
shards = sorted({n.split("/")[0] for (pid, _), n in names.items() if pid == 1})
print(f"{path}: unmatched E {unmatched}, open B {left_open}, pids {pids}, "
      f"VM track prefixes {shards}")
ok = unmatched == 0 and left_open == 0 and len(pids) == want_pids
if want_shards is not None:
    ok = ok and shards == [f"s{i}" for i in range(want_shards)]
sys.exit(0 if ok else 1)
