import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

try:
    import skein  # noqa: F401
except ImportError:  # running from a fresh checkout without installing
    sys.path.insert(0, str(ROOT / "src"))

# the benchmark's seeded diagram generators (gen) and its tracer (tracing):
# every generated test diagram comes from gen
sys.path.insert(0, str(ROOT / "skeinbench"))
