"""Every policy trains in float32, GARL and every baseline alike.

One ``smoke`` training iteration per registered agent, then three
checks: every parameter, every Adam slot and every node of a
``repro.nn.trace()`` of one update step is float32.  A constant built
in float64 anywhere in a forward, a loss or a fused kernel promotes the
graph from that op on, and shows up here as a float64 node.
"""

import numpy as np
import pytest

from repro.analysis.graphcheck.ir import build_ir
from repro.baselines.registry import AGENT_NAMES
from repro.experiments.runner import build_agent
from repro.nn import DTYPE, Adam, trace


def _modules_and_optimizers(agent):
    if hasattr(agent, "trainer"):
        trainer = agent.trainer
        return ([agent.ugv_policy, agent.uav_policy],
                [trainer.ugv_optimizer, trainer.uav_optimizer])
    modules = [v for v in vars(agent).values() if hasattr(v, "named_parameters")]
    optimizers = [v for v in vars(agent).values() if isinstance(v, Adam)]
    return modules, optimizers


def _update_step(agent):
    """One update of both agent classes, as training runs it."""
    if hasattr(agent, "trainer"):
        trainer = agent.trainer
        if trainer.supports_vectorized():
            ugv, uav, *_ = trainer.collect_vec(1, 1)
            trainer.update_ugv_vec(ugv)
            trainer.update_uav_vec(uav)
        else:
            ugv, uav, *_ = trainer.collect(1)
            trainer.update_ugv(ugv)
            trainer.update_uav(uav)
    else:  # MADDPG: one critic + actor step per agent class
        agent.batch_size = min(agent.batch_size, len(agent.ugv_buffer),
                               len(agent.uav_buffer))
        assert agent.batch_size > 0
        agent._update_ugv()
        agent._update_uav()


@pytest.mark.parametrize("method", AGENT_NAMES)
def test_agent_trains_in_float32(method):
    agent = build_agent(method, "kaist", preset="smoke", num_ugvs=2,
                        num_uavs_per_ugv=1, seed=1)
    agent.train(1)
    modules, optimizers = _modules_and_optimizers(agent)
    params = {f"{i}.{name}": p for i, m in enumerate(modules)
              for name, p in m.named_parameters()}
    if not params:  # greedy / random: nothing is trained
        return
    for name, p in params.items():
        assert p.dtype == DTYPE, name
    assert optimizers
    for opt in optimizers:
        for key, value in opt.state_dict().items():
            if isinstance(value, np.ndarray):
                assert value.dtype == DTYPE, key

    with trace() as tape:
        _update_step(agent)
    ir = build_ir(tape)
    assert len(ir.nodes) > 0
    promoted = sorted({f"{n.op} {n.dtype}" for n in ir.nodes
                       if n.dtype != np.dtype(DTYPE).name})
    assert promoted == []
