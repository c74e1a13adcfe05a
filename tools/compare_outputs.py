"""Run the byte-identity set on two source trees and compare the outputs.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``garding`` package, for
example ``src`` of this checkout and ``src`` of a ``git archive`` of its
parent commit.  Every run in ``RUNS`` calls ``python -m garding.cli`` with
``--seed 1`` and ``PYTHONPATH`` set to one tree, on a spec file of this
checkout.  A run with extra spec text appends it to a copy of the spec in the
temporary directory; both trees read that one copy.  The exit status, standard output, standard error, ``report.txt``
and ``fields.csv`` of each run are compared byte for byte.  Prints IDENTICAL and
exits 0, or names each run and output that differs and exits 1.  For a
``report.txt`` or ``fields.csv`` written on both sides it also prints the largest
absolute difference in each float column that differs (a report's column is
one ``key = value`` line), or says that a column's empty cells or row count differ.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# spec text appended to bench/specs/box-n2-p1-r9.spec: starts other than
# the subsolution (at coeff 0.5 the mean axis stencil's weights are uneven
# across rows; at -1 the start is outside the cone and the solve exits 3), a
# subsolution above psi but off phi on the boundary, and a nonzero chi
INIT = "[init]\nbuiltin = quadratic\ncoeff = 0.8\n"
UNEVEN_INIT = "[init]\nbuiltin = quadratic\ncoeff = 0.5\n"
OUTSIDE_INIT = "[init]\nbuiltin = quadratic\ncoeff = -1\n"
OFF_BOUNDARY = "[subsolution]\nbuiltin = quadratic\ncoeff = 5\n"
CHI = "[chi]\ndiag = 0.5, 0.25\n"
RUNS = (  # (mode, spec, appended spec text)
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
    ("solve", "bench/specs/box-n2-p1-r9.spec", INIT),
    ("solve", "bench/specs/box-n2-p1-r9.spec", UNEVEN_INIT),
    ("solve", "bench/specs/box-n2-p1-r9.spec", OUTSIDE_INIT),
    ("solve", "bench/specs/box-n2-p1-r9.spec", OFF_BOUNDARY),
    ("solve", "bench/specs/box-n2-p1-r9.spec", CHI),
    ("verify-subsolution", "bench/specs/box-n2-p1-r9.spec", OFF_BOUNDARY),
    ("refine-sweep", "bench/specs/box-n2-p1-r9.spec", "[sweep]\nresolutions = 9, 11\n"),
)
FILES = ("report.txt", "fields.csv")


def spec_file(spec: str, extra: str, tmp: Path) -> Path:
    """The spec a run reads: this checkout's file, or a copy of it with
    ``extra`` appended, under ``tmp`` with the same file name (the report
    records it)."""
    if not extra:
        return ROOT / spec
    tmp.mkdir()
    path = tmp / Path(spec).name
    path.write_text((ROOT / spec).read_text() + "\n" + extra)
    return path


def outputs(src: Path, mode: str, spec: Path, out: Path) -> dict:
    """{output name: bytes, or None when the run wrote no such file}."""
    out.mkdir()
    done = subprocess.run(
        [sys.executable, "-m", "garding.cli", "--mode", mode, "--spec", str(spec),
         "--out", str(out), "--seed", "1"],
        env=dict(os.environ, PYTHONPATH=str(src)), cwd=out, capture_output=True, check=False)
    found = {"exit status": str(done.returncode).encode(), "stdout": done.stdout,
             "stderr": done.stderr}
    for name in FILES:
        found[name] = (out / name).read_bytes() if (out / name).is_file() else None
    return found


def float_columns(name: str, data: bytes) -> dict:
    """{column: its cells as text} of a ``fields.csv`` (after the format line
    and the header) or of a ``report.txt``'s ``key = value`` lines, for every
    column whose cells all read as floats or are empty."""
    lines = data.decode().splitlines()
    if name == "fields.csv":
        cells = dict(zip(lines[1].split(","), zip(*(line.split(",") for line in lines[2:]))))
    else:
        cells = {key: (value,) for key, eq, value in (line.partition(" = ") for line in lines) if eq}
    found = {}
    for key, column in cells.items():
        try:
            [float(cell) for cell in column if cell]
        except ValueError:
            continue
        found[key] = column
    return found


def largest_deltas(name: str, parent: bytes, change: bytes) -> str:
    """"column delta" for each float column of ``name`` that differs, with
    delta the largest |change - parent| over the cells whose text differs."""
    old, new = float_columns(name, parent), float_columns(name, change)
    parts = []
    for key in (key for key in old if key in new and old[key] != new[key]):
        pairs = [(a, b) for a, b in zip(old[key], new[key]) if a != b]
        if len(old[key]) != len(new[key]) or not all(a and b for a, b in pairs):
            parts.append(f"{key} (empty cells or rows differ)")
        else:
            parts.append(f"{key} {max(abs(float(b) - float(a)) for a, b in pairs):.3g}")
    return ", ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    differ = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (mode, spec, *extra) in enumerate(RUNS):
            extra = "".join(extra)
            path = spec_file(spec, extra, Path(tmp) / f"spec-{i}")
            parent, change = (outputs(src.resolve(), mode, path, Path(tmp) / f"{side}-{i}")
                              for side, src in (("parent", args.parent_src),
                                                ("change", args.change_src)))
            run = f"{mode} {spec}" + (f" + {'; '.join(extra.splitlines())}" if extra else "")
            for name in (name for name in parent if parent[name] != change[name]):
                deltas = (largest_deltas(name, parent[name], change[name])
                          if name in FILES and None not in (parent[name], change[name]) else "")
                differ.append(f"{run}: {name} differs" + (f"; largest |delta|: {deltas}"
                                                          if deltas else ""))
    print("\n".join(differ) or "IDENTICAL")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
