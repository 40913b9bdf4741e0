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

    monkeypatch.setattr(hecke, "_TABLE", hecke._ProductTable())
    monkeypatch.setattr(hecke, "_G", tuple(
        (s, i, j, -sign if (s, i, j) == (0, 0, 0) else sign) for s, i, j, sign in hecke._G))


@pytest.fixture
def golden_label_pairs():
    """The (lambda, lambda*) pairs of H_G and H_G0 in the packaged golden tables:
    the tables' own label column, read here and not through the package."""
    import json
    from importlib import resources

    pairs = set()
    for path in resources.files("g2hecke").joinpath("data/tables").iterdir():
        for row in json.loads(path.read_text())["rows"]:
            for side in ("H_G", "H_G0"):
                h = row["classification"][side]
                if "lambda" in h:
                    pairs.add((h["lambda"], h["lambda_star"]))
    return pairs
