"""Let the CLI subprocesses that tests start import the package from src/.

pyproject.toml puts src/ on the test process's own path; a child
interpreter sees only PYTHONPATH, so src/ goes there too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
