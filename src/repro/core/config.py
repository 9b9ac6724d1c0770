"""Model and training hyperparameters for GARL (Section IV / V-B)."""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["GARLConfig", "PPOConfig"]


@dataclass(frozen=True)
class PPOConfig:
    """IPPO optimisation hyperparameters (Eqns. 2, 15, 16)."""

    lr: float = 3e-4
    gamma: float = 0.99
    gae_lambda: float = 0.95
    clip_eps: float = 0.2  # epsilon_1 in Eqn. (15)
    value_clip: float = 0.2  # epsilon_2 in Eqn. (16)
    value_coef: float = 0.5  # c_1 in Eqn. (2)
    entropy_coef: float = 0.01  # c_2 in Eqn. (2)
    epochs: int = 4  # J in Algorithm 1
    minibatch_size: int = 64
    max_grad_norm: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must be in [0, 1)")
        if not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gae_lambda must be in [0, 1]")
        if self.clip_eps <= 0 or self.epochs < 1 or self.minibatch_size < 1:
            raise ValueError("invalid PPO hyperparameters")


@dataclass(frozen=True)
class GARLConfig:
    """Architecture hyperparameters for the GARL model.

    ``mc_gcn_layers`` and ``ecomm_layers`` are the L^MC / L^E of Table II
    (both peak at 3).  ``use_mc_gcn`` / ``use_ecomm`` are the Table III
    ablation switches: disabling MC-GCN falls back to a plain GCN without
    the multi-center attention; disabling E-Comm skips communication.
    """

    hidden_dim: int = 32
    mc_gcn_layers: int = 3  # L^MC
    ecomm_layers: int = 3  # L^E
    structural_q: float = 8.0  # threshold q in Eqn. (19), in hops
    ecomm_clip: float = 50.0  # g̃_max in Eqn. (29), metres
    use_mc_gcn: bool = True
    use_ecomm: bool = True
    # Extra ablation: replace Eqn. (26)'s inverse-distance softmax with a
    # uniform mean over neighbours (the CommNet-style aggregation the
    # paper argues against).
    ecomm_uniform_weights: bool = False
    uav_channels: int = 8
    uav_hidden_dim: int = 32
    ppo: PPOConfig = PPOConfig()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mc_gcn_layers < 1 or self.ecomm_layers < 1:
            raise ValueError("layer counts must be >= 1")
        if self.hidden_dim < 1 or self.uav_hidden_dim < 1:
            raise ValueError("hidden dims must be >= 1")
        if self.structural_q <= 0:
            raise ValueError("structural_q must be positive")

    def replace(self, **kwargs) -> "GARLConfig":
        return replace(self, **kwargs)

    def ablated(self, mc: bool = True, ecomm: bool = True) -> "GARLConfig":
        """Convenience for Table III: keep/drop components."""
        return replace(self, use_mc_gcn=mc, use_ecomm=ecomm)
