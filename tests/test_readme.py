"""The README's Library example runs, and does what its comments say."""

from srlnc import rank

from helpers import README, readme_python_blocks


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
