"""Every module under ``src/repro`` imports on its own.

The test suite imports packages in one fixed order, which can hide an
import cycle that a user's first import trips over (``import
repro.economics`` once failed because ``economics`` loaded ``core``,
whose scheduler loaded ``economics.billing`` before it had finished).
So each module is imported alone, in a process that has never imported
``repro``: a fresh interpreter loads the third-party dependencies once,
then forks one child per module.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

_FORKER = r"""
import importlib, json, os, sys, traceback
import numpy  # the shared third-party cost, paid once before forking

def alone(name):
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        try:  # whatever the import raises, the child must not return
            importlib.import_module(name)
            code = 0
        except BaseException:
            os.write(write, traceback.format_exc()[-300:].encode())
            code = 1
        os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        err = pipe.read()
    _, status = os.waitpid(pid, 0)
    return status == 0, err.strip()

failures = {}
for name in sys.argv[1:]:
    ok, err = alone(name)
    if not ok:
        failures[name] = err
print(json.dumps(failures))
"""


def _modules():
    names = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_alone_in_a_fresh_process():
    modules = _modules()
    assert {"repro", "repro.economics", "repro.economics.billing",
            "repro.core.credit", "repro.cli"} <= set(modules)
    # one BLAS thread, so the forking interpreter has no threads
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", _FORKER, *modules],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    failures = json.loads(proc.stdout.strip().splitlines()[-1])
    assert failures == {}, "\n\n".join(
        f"{name}:\n{err}" for name, err in failures.items())
