"""The README's Library example runs, and does what its comments say, and
the refusal line it quotes is the one the CLI prints."""

import json
import re

from srlnc import rank
from srlnc.cli import main

from helpers import README, readme_python_blocks
from test_cli import DEPENDENT_SPANNER_GEMS


def test_the_library_example_runs():
    blocks = readme_python_blocks()
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    net, plan, sp, gem8 = scope["net"], scope["plan"], scope["sp"], scope["gem8"]
    assert scope["max_flow"](net, 8).value == 1
    assert len(sp.decoded_indices) == 1
    assert plan.P_hat @ gem8.matrix @ sp.D_hat == sp.R_hat
    # the full-rate sinks keep rank 2 under P_hat
    for t in (6, 7):
        B = scope["extract_gem"](scope["code"], net, t).matrix
        assert rank(plan.P_hat @ B) == 2


def test_the_quoted_common_basis_refusal_is_the_one_precode_prints(tmp_path, capsys):
    quoted = re.findall(r"`(infeasible: the member spans have no common basis: [^`]*)`",
                        README.read_text(encoding="utf-8"))
    assert len(quoted) == 1
    gems = tmp_path / "gems.json"
    gems.write_text(json.dumps(DEPENDENT_SPANNER_GEMS), encoding="utf-8")
    assert main(["precode", "--gems", str(gems)]) == 3
    assert capsys.readouterr().err.splitlines() == [" ".join(quoted[0].split())]
