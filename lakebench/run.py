"""Start the lake-lifecycle benchmark under an interpreter that has its
dependencies.

    python3 lakebench/run.py --workload {encode,scan,exchange} --seed N --seconds S --trace {0,1}

Whichever ``python3`` comes first on PATH may lack ray, pyarrow, numpy,
duckdb or pandas (psutil comes with ray). This launcher uses only the standard library and only
syntax old interpreters accept: it probes candidate interpreters (its own,
every ``python3``/``python`` on PATH, pyenv and conda installs under
$HOME, then the system ones), and replaces itself with the first that can
import all of them, running ``harness.py``. The benchmark's environment
drops PYTHONPATH, PYTHONHOME, OMP_NUM_THREADS and every RAY_* variable, and
the interpreter runs with ``-E``, so none of them changes a run.
"""

import glob
import os
import subprocess
import sys

REQUIRED = ("ray", "pyarrow", "numpy", "duckdb", "pandas")
PROBE = (
    "import importlib.util, sys\n"
    "missing = [m for m in %r if importlib.util.find_spec(m) is None]\n"
    "print(sys.executable if not missing else 'missing ' + ' '.join(missing))\n"
) % (REQUIRED,)
DROPPED = ("PYTHONPATH", "PYTHONHOME", "PYTHONSTARTUP", "PYTHONUSERBASE", "OMP_NUM_THREADS")


def clean_env():
    return dict(
        (k, v) for k, v in os.environ.items() if k not in DROPPED and not k.startswith("RAY_")
    )


def candidates():
    seen = set()
    home = os.path.expanduser("~")
    found = [sys.executable]
    for d in os.environ.get("PATH", "").split(os.pathsep):
        found += [os.path.join(d, "python3"), os.path.join(d, "python")]
    roots = [os.environ.get("PYENV_ROOT", ""), os.path.join(home, ".pyenv")]
    for root in roots:
        if root:
            found += sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3")), reverse=True)
    for conda in ("miniconda3", "miniconda", "anaconda3", "miniforge3", "mambaforge"):
        found.append(os.path.join(home, conda, "bin", "python3"))
    found += ["/usr/local/bin/python3", "/usr/bin/python3"]
    for path in found:
        if path and os.path.isfile(path) and os.access(path, os.X_OK):
            real = os.path.realpath(path)
            if real not in seen:
                seen.add(real)
                yield path


def find_interpreter(env):
    """(executable, []) for the first candidate with every dependency, or
    (None, [why each candidate was refused])."""
    refused = []
    for path in candidates():
        try:
            out = subprocess.run(
                [path, "-E", "-c", PROBE],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                timeout=60,
                universal_newlines=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError) as e:
            refused.append("%s: %s" % (path, e))
            continue
        if out and not out.startswith("missing") and os.path.isfile(out):
            return out, refused
        refused.append("%s: %s" % (path, out or "probe failed"))
    return None, refused


def main():
    env = clean_env()
    python, refused = find_interpreter(env)
    if python is None:
        sys.stderr.write(
            "lakebench: set-up failed: no interpreter can import %s (tried %s) [interpreter %s]\n"
            % (", ".join(REQUIRED), "; ".join(refused), sys.executable)
        )
        return 2
    harness = os.path.join(os.path.dirname(os.path.abspath(__file__)), "harness.py")
    sys.stdout.flush()
    sys.stderr.flush()
    os.execve(python, [python, "-E", harness] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
