"""Checks on one served decision against the request that asked for it."""

from __future__ import annotations

import numpy as np


def check_ugv(request: dict, reply: dict, schema: dict) -> str | None:
    """``None`` if a UGV reply is well formed and feasible, else why not.

    ``request`` holds the observation arrays sent (``action_mask`` is
    ``(U, B+1)``); ``reply`` the decoded response arrays.
    """
    num_ugvs = int(schema["num_ugvs"])
    num_actions = int(schema["num_stops"]) + 1
    for key in ("actions", "log_probs", "values"):
        if key not in reply:
            return f"missing {key!r}"
        if np.shape(reply[key]) != (num_ugvs,):
            return f"{key} has shape {np.shape(reply[key])}, want ({num_ugvs},)"
    actions = np.asarray(reply["actions"])
    if not np.issubdtype(actions.dtype, np.integer):
        return f"actions have dtype {actions.dtype}, want integers"
    if actions.min() < 0 or actions.max() >= num_actions:
        return "action index out of range"
    mask = np.asarray(request["action_mask"], dtype=bool)
    if not mask[np.arange(num_ugvs), actions].all():
        return "action infeasible under the request's action_mask"
    log_probs = np.asarray(reply["log_probs"], dtype=float)
    if not np.isfinite(log_probs).all() or (log_probs > 1e-9).any():
        return "log_probs must be finite and <= 0"
    if not np.isfinite(np.asarray(reply["values"], dtype=float)).all():
        return "values are not finite"
    return None


def check_uav(request: dict, reply: dict, schema: dict) -> str | None:
    """``None`` if a UAV reply has one finite move per requested crop."""
    n = len(request["grids"])
    dim = int(schema["uav_action_dim"])
    want = {"actions": (n, dim), "moves": (n, dim), "log_probs": (n,),
            "values": (n,)}
    for key, shape in want.items():
        if key not in reply:
            return f"missing {key!r}"
        value = np.asarray(reply[key])
        if value.shape != shape:
            return f"{key} has shape {value.shape}, want {shape}"
        if not np.isfinite(value.astype(float)).all():
            return f"{key} is not finite"
    return None


def check(kind: str, request: dict, reply: dict, schema: dict) -> str | None:
    if kind == "ugv":
        return check_ugv(request, reply, schema)
    return check_uav(request, reply, schema)
