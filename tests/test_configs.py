"""The paper's workloads and the documented format as config files.

Each `configs/*.cfg` is the one statement of a paper workload: it must
round-trip through render_config and be read by an acceptance criterion
(tests/test_acceptance.py runs it), and the README's example configuration
and `slowlight` commands must parse.  Nothing is integrated here.
"""
import re
import shlex
from pathlib import Path

import pytest

from slowlight.cli import build_parser
from slowlight.config import parse_config, render_config

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
NAMES = ["memory.cfg", "slow_light.cfg", "trapping_balanced.cfg",
         "trapping_imbalanced.cfg"]


def test_every_config_is_checked():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_config_builds_acceptance_inputs(name):
    cfg = parse_config((CONFIGS / name).read_text(encoding="utf-8"))
    assert parse_config(render_config(cfg)) == cfg
    # no orphan configs: some criterion reads this file
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    assert f'"{name}"' in acceptance


def test_readme_example_config_parses():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert parse_config(render_config(cfg)) == cfg


def test_readme_commands_parse():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.S | re.M)
    commands = [shlex.split(line, comments=True)[1:]
                for block in blocks for line in block.splitlines()
                if line.startswith("slowlight ")]
    parser = build_parser()
    parsed = {parser.parse_args(argv).command for argv in commands}
    assert parsed == {"spectrum", "run", "sweep", "fit"}
