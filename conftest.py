import sys
from pathlib import Path

import pytest

# allow running pytest from a fresh checkout without installing the package
_src = Path(__file__).parent / "src"
if (_src / "g2hecke").is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))


@pytest.fixture
def constant_term_flipped(monkeypatch):
    """Products built with g = q^lam + 1 + ...: the constant term of the
    commutation coefficient has the wrong sign, and nothing else changes."""
    from g2hecke import hecke

    honest = hecke._structure_constants
    monkeypatch.setattr(hecke, "_TABLE", (None, None))
    monkeypatch.setattr(
        hecke,
        "_structure_constants",
        lambda p: [(s, e, -sign if (s, e) == (0, 0) else sign) for s, e, sign in honest(p)],
    )
