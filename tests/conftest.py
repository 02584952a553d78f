import os
from pathlib import Path

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# pyproject's ``pythonpath`` puts src/ on this process's path; the Python
# processes the tests start (``python -m periodetect``) find it here.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
