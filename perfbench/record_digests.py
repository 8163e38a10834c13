"""Record the digests of the reference outputs that run.py checks against.

    python3 perfbench/record_digests.py SEEDS [WORKLOAD ...]

Computes, in process, every output the workloads check for seeds 0 to
SEEDS - 1 and writes their SHA-256 digests to perfbench/digests.json, for
the named workloads only when some are given.  Run it only at a commit whose
outputs are known good; a later change that alters an output byte then fails
the benchmark's correctness gate for those seeds.
"""

import json
import sys
from pathlib import Path

import run


def digests(workload: str, seed: int, scratch: Path) -> dict[str, str]:
    if workload.startswith("curate"):
        files = run.curate_files(workload, seed, scratch)
        return {workload: run.digest(p for f in files for p in run.reference_curation(f.text, f.queries))}
    text = run.kbgen.synthetic_kb(seed, run.kbgen.MEDIUM)
    expected, _ = run.reference_bodies(text, run.kbgen.request_mix(seed, run.MIX_SIZE))
    return {workload: run.bodies_digest(expected)}


def main() -> int:
    seeds = range(int(sys.argv[1]))
    workloads = sys.argv[2:] or list(run.WORKLOADS)
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    work = run.HERE / ".work"
    work.mkdir(exist_ok=True)
    scratch = Path(run.tempfile.mkdtemp(dir=work))
    try:
        for seed in seeds:
            for workload in workloads:
                for key, value in digests(workload, seed, scratch).items():
                    table.setdefault(key, {})[str(seed)] = value
            print(f"seed {seed} done", flush=True)
    finally:
        run.shutil.rmtree(scratch, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
