"""Save/load model state to ``.npz`` checkpoint files.

Writes are *atomic*: the payload is serialised to a temporary file in the
destination directory, fsync'd, and renamed over the target — a crash
mid-save can never leave a truncated checkpoint where a valid one is
expected.  Loads are *validated upfront*: the stored keys are diffed
against the module's ``named_parameters()`` (names, shapes and dtype
compatibility) before any parameter is touched, so a mismatched
architecture raises one diagnostic listing every problem instead of a
cryptic numpy broadcast error halfway through.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "atomic_write_bytes",
    "atomic_savez",
    "validate_state_dict",
    "CheckpointMismatchError",
    "rng_state",
    "rng_from_state",
    "set_rng_state",
    "array_digest",
    "state_digest",
]


class CheckpointMismatchError(ValueError):
    """A checkpoint does not fit the module it is being loaded into.

    Carries the full diagnosis: ``missing`` (in the module, not the
    file), ``unexpected`` (in the file, not the module) and
    ``mismatched`` (present in both with incompatible shape/dtype).
    """

    def __init__(self, missing: list[str], unexpected: list[str],
                 mismatched: list[str], context: str = "checkpoint"):
        self.missing = list(missing)
        self.unexpected = list(unexpected)
        self.mismatched = list(mismatched)
        lines = [f"{context} does not match the target module:"]
        if missing:
            lines.append(f"  missing keys ({len(missing)}): {', '.join(missing)}")
        if unexpected:
            lines.append(f"  unexpected keys ({len(unexpected)}): {', '.join(unexpected)}")
        if mismatched:
            lines.append(f"  mismatched keys ({len(mismatched)}):")
            lines.extend(f"    {m}" for m in mismatched)
        super().__init__("\n".join(lines))


# ----------------------------------------------------------------------
# Atomic writes
# ----------------------------------------------------------------------

def atomic_write_bytes(path: str | Path, payload: bytes) -> Path:
    """Write ``payload`` to ``path`` atomically (temp + fsync + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_savez(path: str | Path, arrays: dict[str, np.ndarray]) -> Path:
    """``np.savez`` into ``path`` atomically."""
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return atomic_write_bytes(path, buf.getvalue())


# ----------------------------------------------------------------------
# State fingerprints (determinism analysis)
# ----------------------------------------------------------------------

def array_digest(arr: np.ndarray) -> str:
    """Short sha256 digest of an array's dtype, shape and contents.

    Byte-exact: two arrays digest equal iff they are bit-identical, which
    is the equality the ``repro check-determinism`` bisector certifies.
    """
    import hashlib

    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(arr.dtype).encode())
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())
    return h.hexdigest()[:16]


def state_digest(state) -> str:
    """Canonical digest of a nested state tree (dicts/lists/arrays/scalars).

    Arrays hash by bytes (see :func:`array_digest`), everything else by a
    sorted-key JSON encoding, so the digest of ``module.state_dict()`` /
    ``optimizer.state_dict()`` trees is stable across processes and runs.
    """
    import hashlib

    def canon(node):
        if isinstance(node, np.ndarray):
            return {"__array__": array_digest(node)}
        if isinstance(node, dict):
            return {str(k): canon(v) for k, v in sorted(
                node.items(), key=lambda kv: str(kv[0]))}
        if isinstance(node, (list, tuple)):
            return [canon(v) for v in node]
        if isinstance(node, (np.integer,)):
            return int(node)
        if isinstance(node, (np.floating,)):
            return float(node)
        if isinstance(node, (np.bool_,)):
            return bool(node)
        return node

    blob = json.dumps(canon(state), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------------
# rng stream capture
# ----------------------------------------------------------------------

def rng_state(rng: np.random.Generator) -> dict:
    """JSON-serialisable snapshot of a Generator's bit-stream position."""
    return json.loads(json.dumps(rng.bit_generator.state))


def rng_from_state(state: dict) -> np.random.Generator:
    """Rebuild a Generator positioned exactly at a captured state."""
    bit_gen = getattr(np.random, state["bit_generator"])()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def set_rng_state(rng: np.random.Generator, state: dict) -> None:
    """Reposition an existing Generator at a captured state (in place)."""
    if rng.bit_generator.state["bit_generator"] != state["bit_generator"]:
        raise ValueError(
            f"rng state is for {state['bit_generator']!r}, generator uses "
            f"{rng.bit_generator.state['bit_generator']!r}")
    rng.bit_generator.state = state


# ----------------------------------------------------------------------
# Module checkpoints
# ----------------------------------------------------------------------

def save_checkpoint(module, path: str | Path, metadata: dict | None = None) -> Path:
    """Serialise a module's parameters (plus optional JSON metadata)."""
    state = module.state_dict()
    payload = {f"param::{k}": v for k, v in state.items()}
    payload["__metadata__"] = np.frombuffer(
        json.dumps(metadata or {}).encode("utf-8"), dtype=np.uint8
    )
    return atomic_savez(path, payload)


def validate_state_dict(module, state: dict[str, np.ndarray],
                        context: str = "checkpoint") -> None:
    """Diff ``state`` against the module's parameters; raise on mismatch.

    Checks key sets, shapes and dtypes *before* any mutation (a value is
    never cast: a float64 state does not load into float32 parameters),
    raising a single :class:`CheckpointMismatchError` that lists every
    missing / unexpected / mismatched key.
    """
    own = dict(module.named_parameters())
    missing = sorted(set(own) - set(state))
    unexpected = sorted(set(state) - set(own))
    mismatched = []
    for name in sorted(set(own) & set(state)):
        value = np.asarray(state[name])
        param = own[name]
        if value.shape != param.data.shape:
            mismatched.append(f"{name}: checkpoint shape {value.shape} vs "
                              f"parameter shape {param.data.shape}")
        elif value.dtype != param.data.dtype:
            mismatched.append(f"{name}: checkpoint dtype {value.dtype} vs "
                              f"parameter dtype {param.data.dtype}")
    if missing or unexpected or mismatched:
        raise CheckpointMismatchError(missing, unexpected, mismatched, context)


def load_checkpoint(module, path: str | Path) -> dict:
    """Load parameters into ``module``; returns the stored metadata.

    The stored state is validated against ``module.named_parameters()``
    upfront (see :func:`validate_state_dict`), so an architecture
    mismatch produces one complete diagnostic and leaves the module
    untouched.
    """
    path = Path(path)
    with np.load(path) as data:
        state = {
            key[len("param::"):]: data[key]
            for key in data.files
            if key.startswith("param::")
        }
        meta_bytes = bytes(data["__metadata__"]) if "__metadata__" in data.files else b"{}"
    validate_state_dict(module, state, context=str(path))
    module.load_state_dict(state)
    return json.loads(meta_bytes.decode("utf-8"))
