"""Let the CLI subprocesses the tests start import the package from src/.

``pythonpath`` in pyproject.toml covers the test process itself; child
interpreters only see the environment, so src/ is put on PYTHONPATH too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
