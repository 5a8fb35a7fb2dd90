"""The README's examples run as written."""

import pathlib
import re

from augquant import cli

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run_in_order():
    blocks = _blocks("python")
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_config_block_simulates(tmp_path):
    (block,) = _blocks("ini")
    cfgp = tmp_path / "readme.cfg"
    cfgp.write_text(block)
    assert cli.main(["simulate", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "result.csv").stat().st_size > 0
