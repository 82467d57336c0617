#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload scenB-olia --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --record                # rewrite reference.json

Run it from the root of a checkout. It builds perfbench/main.exe in the
release profile under .bench_build/, maps --seed onto the benchmark's
input seeds, hands the program the reference outcome digest recorded
for that input, and adds the run's peak resident memory to the
end-to-end metrics (from one extra checked episode in a fresh process).
The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Input seeds 1-16 are the benchmark's pool; any other --seed maps into
it. Seed 17 is held out: no tuning run uses it, so later claims can be
confirmed on it with --seed 17.
"""

import argparse
import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ["scenB-olia", "fattree8-perm-2shard", "fattree8-shortflows"]
SEED_POOL = 16
HELD_OUT = 17
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def input_seed(seed):
    if 1 <= seed <= HELD_OUT:
        return seed
    return 1 + (seed - 1) % SEED_POOL


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        fail("simulator sources not found next to perfbench/; "
             "run from the root of a checkout")
    # The shared dune cache lives outside the checkout; keep the build
    # self-contained.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "--build-dir", BUILD_DIR, "./perfbench/main.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                           stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed (dune exit %d)" % r.returncode)


def run_program(args):
    """Run main.exe; return (stdout lines, exit code, peak RSS in MB)."""
    p = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=subprocess.PIPE,
                         text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    # ru_maxrss is in KiB on Linux
    return out.splitlines(), p.returncode, usage.ru_maxrss / 1024.0


def load_references():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (REFERENCE, e))


def run_workload(workload, seed, seconds, trace, refs):
    s = input_seed(seed)
    expect = refs.get(workload, {}).get(str(s))
    if expect is None:
        fail("no reference digest for %s at input seed %d" % (workload, s))
    print("workload %s  seed %d  input seed %d  reference %s"
          % (workload, seed, s, expect), flush=True)
    if not trace:
        # Peak memory is taken from one episode in a fresh process, so it
        # does not depend on how many episodes the timed run fits in.
        # That episode's digest is one more checked attempt.
        lines, code, rss_mb = run_program(
            ["--workload", workload, "--seed", str(s), "--digest"])
        rss_ok = code == 0 and bool(lines) and lines[-1].strip() == expect
        print("memory episode: peak %.2f MB, digest %s" %
              (rss_mb, "ok" if rss_ok else "FAILED"))
    lines, code, _ = run_program(
        ["--workload", workload, "--seed", str(s), "--seconds", str(seconds),
         "--trace", str(trace), "--expect", expect])
    for line in lines[:-1]:
        print(line)
    if code != 0 or not lines:
        fail("%s exited with code %d" % (workload, code))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    if not trace:
        result["attempted"] += 1
        if not rss_ok:
            result["failed"] += 1
            result["correct"] = False
        result["metrics"]["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print("%-28s %14.6g %s" % ("peak_rss_mb", rss_mb, "MB"))
    return result


def record():
    refs = {}
    for w in WORKLOADS:
        refs[w] = {}
        for s in range(1, HELD_OUT + 1):
            lines, code, _ = run_program(
                ["--workload", w, "--seed", str(s), "--digest"])
            if code != 0 or not lines:
                fail("recording %s seed %d failed" % (w, s))
            refs[w][str(s)] = lines[-1].strip()
            print(w, s, refs[w][str(s)], flush=True)
    with open(REFERENCE, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record", action="store_true",
                    help="recompute every reference digest")
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    build()
    if a.record:
        record()
        return
    refs = load_references()
    if a.workload != "all":
        result = run_workload(a.workload, a.seed, a.seconds, a.trace, refs)
        print(json.dumps(result))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        r = run_workload(w, a.seed, a.seconds, a.trace, refs)
        combined["correct"] = combined["correct"] and r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            combined["metrics"][w + "/" + k] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
