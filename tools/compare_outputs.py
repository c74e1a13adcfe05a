"""Run the byte-identity set on two source trees and compare the outputs.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``garding`` package, for
example ``src`` of this checkout and ``src`` of a ``git archive`` of its
parent commit.  Every run in ``RUNS`` calls ``python -m garding.cli`` with
``--seed 1`` and ``PYTHONPATH`` set to one tree, on the spec files of this
checkout.  The exit status, standard output, standard error, ``report.txt``
and ``fields.csv`` of each run are compared byte for byte.  Prints IDENTICAL and
exits 0, or names each run and output that differs and exits 1.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = (
    ("solve", "specs/box-n2-p1.spec"),
    ("solve", "specs/radial-n3-p2.spec"),
    ("solve", "specs/radial-n3-p2-march.spec"),
    ("solve", "bench/specs/box-n2-p1-r9.spec"),
    ("solve", "bench/specs/box-n2-p1-r13.spec"),
    ("solve", "bench/specs/box-n3-p2-r9.spec"),
    ("radial-solve", "specs/radial-n3-p2-march.spec"),
    ("refine-sweep", "specs/radial-n3-p2.spec"),
    ("verify-subsolution", "specs/radial-n3-p2-march.spec"),
    ("check-operator", "specs/box-n2-p1.spec"),
)
FILES = ("report.txt", "fields.csv")


def outputs(src: Path, mode: str, spec: str, out: Path) -> dict:
    """{output name: bytes, or None when the run wrote no such file}."""
    out.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "garding.cli", "--mode", mode, "--spec", str(ROOT / spec),
         "--out", str(out), "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=out, capture_output=True, check=False)
    found = {"exit status": str(done.returncode).encode(), "stdout": done.stdout,
             "stderr": done.stderr}
    for name in FILES:
        found[name] = (out / name).read_bytes() if (out / name).is_file() else None
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (mode, spec) in enumerate(RUNS):
            parent, change = (outputs(src.resolve(), mode, spec, Path(tmp) / f"{side}-{i}")
                              for side, src in (("parent", args.parent_src),
                                                ("change", args.change_src)))
            differ += [f"{mode} {spec}: {name} differs" for name in parent
                       if parent[name] != change[name]]
    print("\n".join(differ) or "IDENTICAL")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
