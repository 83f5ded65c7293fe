"""The stored replay corpus: certificates and synthesized points emitted by
the ``ergodic-certify`` verbs, replayed by the ``exact`` workload.

    python3 perfbench/corpus.py --write   # regenerate the stored files
    python3 perfbench/corpus.py --check   # regenerate and compare; replay

Besides a fixed grid of certificates, ``SEED`` draws one more a.s.
certificate (eps, delta) per observable; the seed and the commit whose
``src`` emitted the files are stored in the manifest.  ``--check`` proves
that the emitters still produce the stored bytes, and replays every
stored file.  A later emitter may legitimately change its output; the
stored files must still replay, which the ``exact`` workload also checks
on every run for the files it draws.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS_DIR = HERE / "corpus"
MANIFEST = CORPUS_DIR / "MANIFEST.json"
SEED = 2010

#: (kind, eps, delta) emitted for every system and observable of its pool
CERT_GRID = [("as-l1", "1/4", "1/4"), ("as-l1", "1/2", "1/8"),
             ("as-bounded", "1/4", "1/2"), ("norm-l1", "1/4", None),
             ("norm-l2", "1/8", None)]
CERT_SYSTEMS = ("shift:p=1/2", "shift:p=1/3", "doubling", "rotation")
#: the rotation hat certificate with n0 = 55, validated at horizon 59
ARC_CERT_FILE = "cert_rotation_hat_a_as-l1_1-2_1-2.json"
ARC_CERT = ("rotation", "hat_a", "as-l1", "1/2", "1/2")
CIRCLE_BALL = {"space": "circle", "center": "1/2", "radius": "1/2"}
SYNTHS = [
    ("rotation", "hat_a", CIRCLE_BALL),
    ("doubling", "hat_a", {"space": "circle", "center": "1/4",
                           "radius": "1/4"}),
    ("doubling", "identity", {"space": "circle", "center": "3/8",
                              "radius": "1/8"}),
    ("shift:p=1/3", "first_bit", {"space": "cantor", "center": "",
                                  "radius": "3/2"}),
    ("shift:p=1/2", "w01", {"space": "cantor", "center": "1",
                            "radius": "3/4"}),
]
TYPICALS = ("doubling", "rotation")


def _slug(*parts) -> str:
    return "_".join(str(p).replace("shift:p=", "shift").replace("/", "-")
                    for p in parts if p is not None)


def emissions() -> list[tuple[str, list[str]]]:
    """(file name, CLI argv) for every stored artifact, in a fixed order."""
    from pools import (GRID, observable_pools, pool_of, rate_argv,
                       synthesize_argv, typical_argv)
    pools = observable_pools()
    rng = random.Random(SEED)
    out = []
    for system in CERT_SYSTEMS:
        for name, obs in pools[pool_of(system)].items():
            drawn = ("as-l1", rng.choice(GRID), rng.choice(GRID))
            grid = CERT_GRID + ([drawn] if drawn not in CERT_GRID else [])
            for kind, eps, delta in grid:
                out.append((f"cert_{_slug(system, name, kind, eps, delta)}"
                            ".json", rate_argv(system, obs, kind, eps, delta)))
    system, name, kind, eps, delta = ARC_CERT
    arc = f"cert_{_slug(system, name, kind, eps, delta)}.json"
    if arc not in dict(out):
        out.append((arc, rate_argv(system, pools[system][name], kind, eps,
                                   delta)))
    for system, name, target in SYNTHS:
        out.append((f"synth_{_slug(system, name)}.json",
                    synthesize_argv(system, pools[pool_of(system)][name],
                                    target)))
    for system in TYPICALS:
        out.append((f"typical_{_slug(system)}.json", typical_argv(system)))
    return out


def generate() -> dict[str, bytes]:
    from ergocert import cli
    from pools import invoke
    files = {}
    for fname, argv in emissions():
        code, text, err = invoke(cli.main, argv)
        if code != 0:
            raise RuntimeError(f"{fname}: exit {code}: {err.strip()}")
        files[fname] = text.encode()
    return files


def manifest_of(files: dict[str, bytes]) -> dict:
    return {"seed": SEED,
            "files": {k: hashlib.sha256(v).hexdigest()
                      for k, v in sorted(files.items())}}


def _source_commit() -> str:
    try:
        run = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
    except OSError:
        return "unknown"
    return run.stdout.strip() or "unknown"


def load() -> dict[str, str]:
    """Stored artifacts by file name, verified against the manifest."""
    manifest = json.loads(MANIFEST.read_text())
    out = {}
    for fname, digest in manifest["files"].items():
        data = (CORPUS_DIR / fname).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise ValueError(f"corpus file {fname} does not match MANIFEST")
        out[fname] = data.decode()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true")
    mode.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    files = generate()
    if args.write:
        CORPUS_DIR.mkdir(exist_ok=True)
        for fname, data in files.items():
            (CORPUS_DIR / fname).write_bytes(data)
        manifest = manifest_of(files)
        manifest["source_commit"] = _source_commit()
        MANIFEST.write_text(json.dumps(manifest, indent=2,
                                       sort_keys=True) + "\n")
        print(f"wrote {len(files)} artifacts to {CORPUS_DIR}")
        return 0
    from ergocert import cli
    from pools import invoke
    stored = json.loads(MANIFEST.read_text())
    fresh = manifest_of(files)
    differ = sorted(k for k in set(stored["files"]) | set(fresh["files"])
                    if stored["files"].get(k) != fresh["files"].get(k))
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(files) - len(differ)}/{len(files)} artifacts reproduce "
          "byte-for-byte")
    rejected = [k for k, text in load().items()
                if invoke(cli.main, ["replay", "--artifact", text])[0] != 0]
    for k in rejected:
        print(f"does not replay: {k}")
    print(f"{len(stored['files']) - len(rejected)}/{len(stored['files'])} "
          "stored artifacts replay")
    return 1 if differ or rejected else 0


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    sys.exit(main())
