#!/usr/bin/env python3
"""Build the perfbench harness from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fig11-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Everything the build and the run write stays under .bench_build/ in the
repository root: the Go build cache, the binary, the scratch directory
and the span dumps of traced runs (.bench_build/traces/).
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["fig11-sweep", "fleet-population", "sussd-mixed"]


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    home = os.path.join(BUILD, "home")
    for d in (tmp, home):
        os.makedirs(d, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    return env


def build(env):
    binary = os.path.join(BUILD, "perfbench")
    tmp = binary + ".tmp"
    r = subprocess.run(["go", "build", "-o", tmp, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        sys.exit("perfbench: build failed")
    os.replace(tmp, binary)
    return binary


def arg(argv, name, default):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main():
    argv = sys.argv[1:]
    env = go_env()
    binary = build(env)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    workload = arg(argv, "--workload", "all")
    if workload != "all":
        sys.stdout.flush()
        os.execve(binary, [binary, "--workdir", traces] + argv, env)

    # One command for every workload: each runs in its own process, so
    # peak RSS stays per workload; the last line combines the results.
    rest = [a for i, a in enumerate(argv)
            if a != "--workload" and (i == 0 or argv[i - 1] != "--workload")]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        r = subprocess.run([binary, "--workdir", traces, "--workload", w] + rest,
                           env=env, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(r.stdout)
        lines = r.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        code = code or r.returncode
        combined["correct"] = combined["correct"] and res["correct"] and r.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][w + "." + k] = v
    print(json.dumps(combined))
    sys.exit(code)


if __name__ == "__main__":
    main()
