import re
from pathlib import Path

from delonetop.cli import load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    # Every ```python block of the README runs as written, each in a fresh
    # namespace.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_config_grammar_block_loads(tmp_path):
    # The ```ini block of "Config grammar" is a config as written: each
    # comment on a line of its own, every value schema-checked.
    (block,) = re.findall(r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"),
                          re.MULTILINE | re.DOTALL)
    cfg = tmp_path / "grammar.ini"
    cfg.write_text(block, encoding="utf-8")
    sections = load_config(cfg)
    assert list(sections) == ["lattice", "model", "index", "experiment"]
    assert sections["lattice"] == {"generator": "hardcore_random", "dim": 2,
                                   "window": [0.0, 27.0], "min_dist": 0.8,
                                   "target_R": 1.2, "seeds": [1, 2, 3]}
    assert sections["index"] == {"kappa_list": [0.05, 0.1, 0.2], "x0": "center"}
    assert sections["experiment"]["symmetry"] == "none"
