"""The code blocks of README.md run against the library as written."""

import re
from pathlib import Path

from mechrom import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section,
                     re.S | re.M).group(1)


def test_library_usage_block_converges():
    # The README experiment: a constrained solve at r = 26, about 0.5 s
    # at one BLAS thread. It must converge, not stall or stop at the cap.
    block = readme_block("## Library usage", "python")
    scope = {"__name__": "__main__"}
    exec(compile(block, "README.md, Library usage", "exec"), scope)
    assert scope["report"].stop_reason == "converged"


def test_configuration_block_loads(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(readme_block("### Configuration", "ini"), encoding="utf-8")
    cfg = cli.load_config(path)
    assert (cfg.n, cfg.tol, cfg.methods) == (200, 1e-2, ["pod", "opinf", "copinf"])


def test_configuration_section_names_every_key():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Configuration\n", 1)[1].split("\n### ", 1)[0]
    missing = sorted({key for _, key in cli._INI_KEYS.values()
                      if not re.search(rf"\b{key}\b", section)})
    assert not missing
