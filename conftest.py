import sys
from pathlib import Path

import pytest

# allow running pytest from a fresh checkout without installing the package
_src = Path(__file__).parent / "src"
if (_src / "g2hecke").is_dir() and str(_src) not in sys.path:
    sys.path.insert(0, str(_src))


# wrong commutation rules, each a map of the (X-shift, i, j, sign) terms of
# hecke._G: the constant term flipped (g = q^lam + 1 + ...), the X-shifts
# negated, and lam and lam_star swapped
WRONG_RULES = {
    "constant-term": lambda s, i, j, sign: (s, i, j, -sign if (s, i, j) == (0, 0, 0) else sign),
    "rule-sign": lambda s, i, j, sign: (-s, i, j, sign),
    "i-j-swap": lambda s, i, j, sign: (s, j, i, sign),
}


def _use_wrong_rule(monkeypatch, name):
    """Products built from ``hecke._G`` with each term mapped by ``WRONG_RULES[name]``."""
    from g2hecke import hecke

    monkeypatch.setattr(hecke, "_TABLE", hecke._ProductTable())
    monkeypatch.setattr(hecke, "_G", tuple(WRONG_RULES[name](*t) for t in hecke._G))


@pytest.fixture
def constant_term_flipped(monkeypatch):
    """Products built with g = q^lam + 1 + ...: the constant term of the
    commutation coefficient has the wrong sign, and nothing else changes."""
    _use_wrong_rule(monkeypatch, "constant-term")


@pytest.fixture(params=list(WRONG_RULES))
def wrong_rule(request, monkeypatch):
    """Products built with each of the wrong commutation rules in turn."""
    _use_wrong_rule(monkeypatch, request.param)


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
