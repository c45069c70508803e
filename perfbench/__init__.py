"""The repository's benchmark: real syncs over loopback TCP, end to end
and layer by layer.  ``python3 perfbench/run.py --help`` runs it; the
README beside this file lists the workloads and metrics."""

import pathlib
import sys

#: The checkout the benchmark measures: the directory above this package.
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_source() -> bool:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Returns False when the checkout holds no ``repro`` package, so the
    caller can fail before measuring anything.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True
