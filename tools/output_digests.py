#!/usr/bin/env python3
"""SHA-256 of every output of the five commands, to compare two checkouts.

    python3 tools/output_digests.py --out DIR [CONFIG ...]

Runs ``scf``, ``residuals``, ``expand``, ``extend-sweep`` and ``verify`` on
each config (default: every ``configs/*.cfg`` of this checkout), each
command in a fresh ``python -m convolve_hf.cli`` interpreter that imports
the package from this checkout's ``src/``.  Everything is written under
DIR: a copy of each config, each command's output directory and its
stdout and stderr.  The commands run in DIR with relative paths, so no
output names the checkout or DIR.

One line is printed per output file, stdout and stderr:

    <config> <command> exit=<code> <file> <sha256>

``summary.txt`` is hashed without its ``wall_seconds`` line, the one line
that differs between two runs of the same code, and so is stdout, where
``scf`` prints the summary too.  stderr is hashed with the source
location of each warning dropped (the ``file:line:`` prefix and the
echoed source line), so that two checkouts compare on each warning's
category and message wherever they sit and however their code lines
moved.  To compare a change with its parent commit:

    git archive HEAD | tar -x -C /tmp/parent
    cp tools/output_digests.py /tmp/parent/tools/
    python3 /tmp/parent/tools/output_digests.py --out /tmp/a > parent.txt
    python3 tools/output_digests.py --out /tmp/b > change.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = ("scf", "residuals", "expand", "extend-sweep", "verify")
WALL_SECONDS = re.compile(rb"^wall_seconds = .*\n?", re.MULTILINE)
# "<file>:<line>: <Category>Warning: <message>" and the echoed source line under it
WARNING_LOCATION = re.compile(rb"^[^\n]*:\d+: (\w+Warning: [^\n]*\n)  [^\n]*\n", re.MULTILINE)


def digest(name: str, data: bytes) -> str:
    """SHA-256 of one output: ``summary.txt`` and ``stdout`` without their
    wall_seconds line, ``stderr`` without warning locations, any other file
    as it is."""
    if name in ("summary.txt", "stdout"):
        data = WALL_SECONDS.sub(b"", data)
    elif name == "stderr":
        data = WARNING_LOCATION.sub(rb"\1", data)
    return hashlib.sha256(data).hexdigest()


def run_command(command: str, label: str, out: Path) -> list[str]:
    """Run one command on ``<label>.cfg`` in ``out``; its digest lines."""
    target = Path(label) / command
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "convolve_hf.cli", command, "--config", f"{label}.cfg",
         "--out", str(target)],
        cwd=out, env=env, capture_output=True,
    )
    outputs = [("stdout", proc.stdout), ("stderr", proc.stderr)]
    for stream, data in outputs:
        (out / label / f"{command}.{stream}").write_bytes(data)
    if (out / target).is_dir():
        outputs += sorted((p.relative_to(out / target).as_posix(), p.read_bytes())
                          for p in (out / target).rglob("*") if p.is_file())
    return [f"{label} {command} exit={proc.returncode} {name} {digest(name, data)}"
            for name, data in outputs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path, help="directory for every output")
    parser.add_argument("configs", nargs="*", type=Path,
                        help="config files (default: configs/*.cfg of this checkout)")
    args = parser.parse_args(argv)
    configs = args.configs or sorted((ROOT / "configs").glob("*.cfg"))
    labels = [c.stem for c in configs]
    if len(set(labels)) != len(labels):
        parser.error("config file names must be distinct")
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    for config, label in zip(configs, labels):
        shutil.rmtree(out / label, ignore_errors=True)
        (out / label).mkdir()
        shutil.copyfile(config, out / f"{label}.cfg")
        for command in COMMANDS:
            print("\n".join(run_command(command, label, out)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
