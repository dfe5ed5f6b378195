#!/usr/bin/env python3
"""Front end of the benchmark of the served, partitioned memcached.

Run from the root of the repository:

  python3 benchsuite/run.py --workload kv-read --seed 1 --seconds 20 --trace 0
      one run of one workload; the last line of standard output is a JSON
      object {"correct", "attempted", "failed", "metrics"}
  python3 benchsuite/run.py suite [--trials N] [--seconds S] [--trace]
                                  [--smoke] [--seed N] [--out FILE]
      every workload, N trials each; prints "<workload> <metric> <value>
      <unit> n=<samples>" lines and writes bench-result.json
  python3 benchsuite/run.py compare A.json... -- B.json...
      medians and quartiles of each side, per workload and metric, judged
      against the bounds in BENCHMARK.json
  python3 benchsuite/run.py selftest
      every workload at tiny sizes, then each planted fault, which must
      make its run fail

Each run builds the benchmark with dune first (a no-op when it is up to
date) and starts the program process; that process starts the load client
and waits for it. A run that fails a correctness check exits 1.
"""

import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", HERE, "main.exe")
RUN_TIMEOUT_S = 170


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./%s/main.exe" % HERE],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("benchmark build failed")


def run_one(workload, seed, seconds, trace, smoke=False, fault=None, echo=True):
    """Run one workload; returns (exit code, parsed last line or None)."""
    cmd = [EXE, "workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace"] if trace else []
    cmd += ["--smoke"] if smoke else []
    cmd += ["--fault", fault] if fault else []
    # its own process group, so a timeout also stops the load client
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        print("%s: no result within %d s" % (workload, RUN_TIMEOUT_S), file=sys.stderr)
        return 124, None
    lines = out.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return p.returncode, result


def env_block(seed):
    def cmd(args):
        try:
            return subprocess.run(args, capture_output=True, text=True).stdout.strip() or "unknown"
        except OSError:
            return "unknown"
    return {
        "nproc": os.cpu_count(),
        "ocaml": cmd(["ocamlc", "-version"]),
        "git_sha": cmd(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else "unknown",
        "PRIVAGIC_ENGINE": os.environ.get("PRIVAGIC_ENGINE", ""),
        "PRIVAGIC_OBS": os.environ.get("PRIVAGIC_OBS", ""),
        "seed": seed,
    }


def flag(args, name, default):
    if name in args:
        i = args.index(name)
        return args[i + 1]
    return default


def suite(args):
    trials = int(flag(args, "--trials", "1"))
    seconds = flag(args, "--seconds", str(spec()["run_seconds"]))
    seed = int(flag(args, "--seed", "42"))
    out = flag(args, "--out", "bench-result.json")
    trace, smoke = "--trace" in args, "--smoke" in args
    env = env_block(seed)
    print("env " + " ".join("%s=%s" % kv for kv in env.items()))
    runs, ok = [], True
    for t in range(trials):
        for w in spec()["workloads"]:
            code, r = run_one(w["name"], seed + t, seconds, trace, smoke=smoke)
            ok = ok and code == 0 and r is not None and r["correct"]
            runs.append({"workload": w["name"], "seed": seed + t, "trace": trace,
                         "exit": code, "result": r})
    with open(out, "w") as f:
        json.dump({"env": env, "runs": runs}, f, indent=1)
    print("wrote %s" % out)
    return 0 if ok else 1


def load_runs(paths):
    vals = {}
    for p in paths:
        with open(p) as f:
            for run in json.load(f)["runs"]:
                r = run["result"]
                if r is None:
                    continue
                for name, m in r["metrics"].items():
                    vals.setdefault((run["workload"], name), []).append(m["value"])
    return vals


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def compare(args):
    if "--" not in args:
        sys.exit("usage: run.py compare A.json... -- B.json...")
    i = args.index("--")
    a, b = load_runs(args[:i]), load_runs(args[i + 1:])
    metrics = spec()["end_to_end"]
    regressed = False
    print("%-14s %-15s %28s %28s %8s  %s" % ("workload", "metric", "A median [q1, q3]",
                                             "B median [q1, q3]", "change", "verdict"))
    for w in spec()["workloads"]:
        for m in metrics:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                continue
            (a1, am, a3), (b1, bm, b3) = quartiles(a[key]), quartiles(b[key])
            bound = m["bound"]
            change = (bm - am) / am if am else 0.0
            worse = change if m["better"] == "lower" else -change
            if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
                verdict = "unresolved (spread wider than the bound)"
            elif worse > bound:
                verdict, regressed = "REGRESSED", True
            elif -worse > bound:
                verdict = "improved"
            else:
                verdict = "no change beyond the bound"
            print("%-14s %-15s %28s %28s %+7.1f%%  %s" % (
                w["name"], m["name"], "%.4g [%.4g, %.4g]" % (am, a1, a3),
                "%.4g [%.4g, %.4g]" % (bm, b1, b3), 100 * change, verdict))
    return 1 if regressed else 0


def selftest():
    ok = True
    for w in spec()["workloads"]:
        code, r = run_one(w["name"], 7, 1, False, smoke=True, echo=False)
        good = code == 0 and r is not None and r["correct"]
        print("%-5s smoke %s" % ("ok" if good else "FAIL", w["name"]))
        ok = ok and good
    for workload, fault in [("kv-read", "corrupt-get"), ("vm-parallel", "corrupt-get"),
                            ("kv-scan", "scan-leak"), ("kv-write-sync", "replica-corrupt")]:
        code, _ = run_one(workload, 7, 1, False, smoke=True, fault=fault, echo=False)
        print("%-5s planted %s on %s: exit %d" % ("ok" if code != 0 else "FAIL", fault, workload, code))
        ok = ok and code != 0
    return 0 if ok else 1


def main(argv):
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    build()
    if argv and argv[0] == "suite":
        return suite(argv[1:])
    if argv and argv[0] == "selftest":
        return selftest()
    if "--workload" not in argv:
        sys.exit(__doc__)
    code, r = run_one(flag(argv, "--workload", None), int(flag(argv, "--seed", "42")),
                      flag(argv, "--seconds", str(spec()["run_seconds"])),
                      flag(argv, "--trace", "0") == "1")
    if r is None:
        return code or 1
    print(json.dumps(r))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
