"""README's examples run as written: the library quick tour and the CLI
configuration."""

import json
import re
from pathlib import Path

import pytest

from dicke_squeeze import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _block(language):
    """The one fenced ``language`` block of the README."""
    (block,) = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.M | re.S)
    return block


def test_quick_tour_runs_and_gives_its_commented_values():
    code = _block("python")
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    # an expression whose comment ends in a number, as "expr  # text, 0.5"
    claims = re.findall(r"^(\S.*?)\s+#.*,\s*([-+.0-9e]+)$", code, flags=re.M)
    assert len(claims) == 2
    for expression, value in claims:
        assert eval(expression, namespace) == pytest.approx(float(value), rel=1e-12)


def test_cli_config_example_resolves():
    cfg = cli.resolve_config("fig7", json.loads(_block("json")))
    assert cfg["grids"]["eta"] == {"min": 0.0, "max": 1.5, "count": 16}
    assert cfg["ed"]["n_max"] == [40, 50]
