"""Service front-end semantics: routing, schema 400s, a fuzzed request
boundary, overload, drain, many-connection load.

Most tests drive an in-process service on an ephemeral port through a
plain ``http.client`` connection.  The SIGTERM drain drill and the
many-connection load check run the real ``repro serve`` process.
"""

from __future__ import annotations

import asyncio
import io
import json
import http.client
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import service as service_module
from repro.serve.artifact import _probe_arrays
from repro.serve.engine import InferenceEngine
from repro.serve.loadgen import build_observation_pool, run_load
from repro.serve.service import DispatchService

from .test_wire import _with_dims

SERVE_TESTS = Path(__file__).resolve().parent
REPO_SRC = SERVE_TESTS.parents[1] / "src"


# ----------------------------------------------------------------------
# In-process service harness
# ----------------------------------------------------------------------

class _Server:
    """Run DispatchService.serve() on a background event-loop thread."""

    def __init__(self, policy, **engine_kwargs):
        import asyncio

        self.engine = InferenceEngine(policy, **engine_kwargs)
        self.service = DispatchService(policy, self.engine,
                                       host="127.0.0.1", port=0,
                                       drain_timeout_s=10.0)
        self.port: int | None = None
        self.loop = None
        ready = threading.Event()

        def _ready(_host, port):
            self.port = port
            self.loop = asyncio.get_running_loop()
            ready.set()

        def _run():
            asyncio.run(self.service.serve(ready_callback=_ready))

        self.thread = threading.Thread(target=_run, daemon=True)
        self.thread.start()
        assert ready.wait(timeout=10), "service did not come up"

    def stop(self):
        # Trigger the same path SIGTERM takes, from the loop's thread.
        self.loop.call_soon_threadsafe(self.service.begin_drain)
        self.thread.join(timeout=15)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)


def _call(conn, method, path, body=None, ctype="application/json"):
    headers = {"Content-Type": ctype} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    payload = resp.read()
    return resp.status, payload


def _npz(arrays: dict, compressed: bool = False) -> bytes:
    buf = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(buf, **arrays)
    return buf.getvalue()


@pytest.fixture(scope="module")
def server(frozen_policy):
    srv = _Server(frozen_policy, max_batch=8, queue_limit=64,
                  timeout_ms=2000)
    yield srv
    srv.stop()


@pytest.fixture()
def session_id(server):
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/session",
                         json.dumps({"seed": 7}).encode())
    conn.close()
    assert status == 200
    return json.loads(body)["session"]


def _ugv_arrays(policy) -> dict:
    obs, _, _ = _probe_arrays(policy.schema)
    return {"stop_features": obs.stop_features[0],
            "ugv_positions": obs.ugv_positions[0],
            "ugv_stops": obs.ugv_stops[0],
            "action_mask": obs.action_mask[0]}


def _ugv_json(policy, session, greedy=False):
    arrays = _ugv_arrays(policy)
    arrays["action_mask"] = arrays["action_mask"].astype(int)
    return {"session": session, "kind": "ugv", "greedy": greedy,
            **{key: value.tolist() for key, value in arrays.items()}}


# ----------------------------------------------------------------------
# Routing + payloads
# ----------------------------------------------------------------------

def test_healthz_and_artifact(server):
    conn = server.connection()
    status, body = _call(conn, "GET", "/healthz")
    assert status == 200 and json.loads(body)["status"] == "ok"
    status, body = _call(conn, "GET", "/v1/artifact")
    assert status == 200
    blob = json.loads(body)
    assert blob["manifest"]["method"] == "garl"
    status, body = _call(conn, "GET", "/v1/metrics")
    assert status == 200 and "engine" in json.loads(body)
    conn.close()


def test_metrics_export_engine_stage_times(server, frozen_policy, session_id):
    conn = server.connection()
    status, _ = _call(conn, "POST", "/v1/act",
                      json.dumps(_ugv_json(frozen_policy, session_id)).encode())
    assert status == 200
    status, body = _call(conn, "GET", "/v1/metrics")
    conn.close()
    engine = json.loads(body)["engine"]
    # The engine's two are written before the request's future resolves;
    # the service's two before its response is written.
    for stage in ("decode_ms", "queue_wait_ms", "forward_ms", "encode_ms"):
        assert engine[stage] > 0.0, stage


class _SteppedClock:
    """Stands in for the service's ``time`` module: the clock moves only
    when a patched codec call advances it."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_codec_stage_accounting_on_a_stepped_clock(frozen_policy,
                                                   monkeypatch):
    """Each answered npz request adds its decode (body -> validated
    arrays) to ``decode_ms`` and its encode (result -> reply bytes) to
    ``encode_ms``; a request refused at validation adds to neither."""
    clock = _SteppedClock()
    decode, encode = service_module.decode_npz, service_module.encode_npz

    def slow_decode(body, **kwargs):
        clock.now += 0.25
        return decode(body, **kwargs)

    def slow_encode(arrays):
        clock.now += 0.125
        return encode(arrays)

    monkeypatch.setattr(service_module, "time", clock)
    monkeypatch.setattr(service_module, "decode_npz", slow_decode)
    monkeypatch.setattr(service_module, "encode_npz", slow_encode)
    srv = _Server(frozen_policy, max_batch=8, timeout_ms=5000)
    try:
        conn = srv.connection()
        sid = json.loads(_call(conn, "POST", "/v1/session", b"{}")[1])[
            "session"]
        _, grids, aux = _probe_arrays(frozen_policy.schema)
        requests = [("ugv", _npz(_ugv_arrays(frozen_policy)), 200),
                    ("uav", _npz({"grids": grids, "aux": aux}), 200),
                    ("uav", _npz({"grids": grids}), 400),
                    ("uav", _npz({"grids": grids, "aux": aux}), 200)]
        for kind, body, want in requests:
            status, reply = _call(conn, "POST",
                                  f"/v1/act?session={sid}&kind={kind}",
                                  body, ctype="application/x-npz")
            assert status == want, reply
        engine = json.loads(_call(conn, "GET", "/v1/metrics")[1])["engine"]
        conn.close()
    finally:
        srv.stop()
    assert engine["decode_ms"] == 3 * 250.0
    assert engine["encode_ms"] == 3 * 125.0


def test_act_json_roundtrip(server, frozen_policy, session_id):
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/act",
                         json.dumps(_ugv_json(frozen_policy, session_id)).encode())
    assert status == 200, body
    blob = json.loads(body)
    num_ugvs = frozen_policy.schema["num_ugvs"]
    num_actions = frozen_policy.schema["num_ugv_actions"]
    assert len(blob["actions"]) == num_ugvs
    assert all(0 <= a < num_actions for a in blob["actions"])
    assert len(blob["values"]) == num_ugvs
    conn.close()


@pytest.mark.parametrize("kind", ["ugv", "uav"])
def test_compressed_npz_gets_the_same_decision(server, frozen_policy, kind):
    """A savez_compressed body gets the decision its savez twin gets, on
    sessions seeded alike."""
    _, grids, aux = _probe_arrays(frozen_policy.schema)
    arrays = (_ugv_arrays(frozen_policy) if kind == "ugv"
              else {"grids": grids, "aux": aux})
    conn = server.connection()
    replies = []
    for compressed in (False, True):
        sid = json.loads(_call(conn, "POST", "/v1/session",
                               b'{"seed": 21}')[1])["session"]
        for _ in range(3):
            status, body = _call(conn, "POST",
                                 f"/v1/act?session={sid}&kind={kind}",
                                 _npz(arrays, compressed),
                                 ctype="application/x-npz")
            assert status == 200, body
            replies.append(body)
    conn.close()
    assert replies[:3] == replies[3:]


def test_huge_observation_is_400(server, frozen_policy, session_id):
    """Finite but huge observations pass the schema check; the NaN their
    forward gives is answered 400, not sent back in a 200."""
    payload = _ugv_json(frozen_policy, session_id)
    payload["stop_features"] = (np.asarray(payload["stop_features"])
                                * 1e200).tolist()
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/act", json.dumps(payload).encode())
    assert status == 400 and "non-finite" in json.loads(body)["error"]
    status, _ = _call(conn, "POST", "/v1/act",
                      json.dumps(_ugv_json(frozen_policy, session_id)).encode())
    assert status == 200
    conn.close()


def test_act_npz_roundtrip(server, frozen_policy, session_id):
    _, grids, aux = _probe_arrays(frozen_policy.schema)
    conn = server.connection()
    status, body = _call(conn, "POST",
                         f"/v1/act?session={session_id}&kind=uav",
                         _npz({"grids": grids, "aux": aux}),
                         ctype="application/x-npz")
    assert status == 200
    with np.load(io.BytesIO(body)) as data:
        assert data["actions"].shape == (grids.shape[0], 2)
        assert data["moves"].shape == (grids.shape[0], 2)
    conn.close()


def test_npz_with_more_members_than_fields_is_400_unparsed(
        server, frozen_policy, session_id, monkeypatch):
    """An npz body holding more members than its kind has observation
    arrays (ugv 4, uav 2) is refused before ``zipfile.ZipFile`` would
    build a ``ZipInfo`` per member; the session still serves after."""
    import zipfile

    _, grids, aux = _probe_arrays(frozen_policy.schema)
    bodies = [("uav", _npz({"grids": grids, "aux": aux, "extra": aux})),
              ("ugv", _npz({**_ugv_arrays(frozen_policy), "extra": aux})),
              ("uav", _npz({f"m{i}": np.zeros(0) for i in range(5000)}))]
    opened = []
    real = zipfile.ZipFile
    monkeypatch.setattr(zipfile, "ZipFile",
                        lambda *a, **k: opened.append(1) or real(*a, **k))
    conn = server.connection()
    for kind, body in bodies:
        status, reply = _call(conn, "POST",
                              f"/v1/act?session={session_id}&kind={kind}",
                              body, ctype="application/x-npz")
        assert status == 400 and "members" in json.loads(reply)["error"]
    assert not opened
    status, _ = _call(conn, "POST", f"/v1/act?session={session_id}&kind=uav",
                      _npz({"grids": grids, "aux": aux}),
                      ctype="application/x-npz")
    assert status == 200 and opened
    conn.close()


def test_unknown_session_is_404(server, frozen_policy):
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/act",
                         json.dumps(_ugv_json(frozen_policy, "nope")).encode())
    assert status == 404
    conn.close()


def test_schema_mismatch_is_400(server, frozen_policy, session_id):
    payload = _ugv_json(frozen_policy, session_id)
    payload["stop_features"] = [[0.0, 1.0]]  # wrong shape entirely
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/act", json.dumps(payload).encode())
    assert status == 400
    assert "stop_features" in json.loads(body)["error"]
    # Malformed JSON is also a 400, not a 500.
    status, _ = _call(conn, "POST", "/v1/act", b"{not json")
    assert status == 400
    conn.close()


@pytest.mark.parametrize("body", [b"[1]", b'{"seed": null}',
                                  b'{"seed": 1e400}', b'{"seed": -1}',
                                  b'{"seed": 2.5}', b'{"seed": true}'])
def test_bad_session_body_is_400(server, body):
    conn = server.connection()
    status, payload = _call(conn, "POST", "/v1/session", body)
    conn.close()
    assert status == 400, payload


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observation_is_400(server, frozen_policy, session_id,
                                       bad):
    payload = _ugv_json(frozen_policy, session_id)
    payload["stop_features"][0][0][0] = bad  # a bare NaN/Infinity token
    _, grids, aux = _probe_arrays(frozen_policy.schema)
    grids[0, 0, 0, 0] = bad
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/act", json.dumps(payload).encode())
    assert status == 400 and "NaN or Inf" in json.loads(body)["error"]
    status, body = _call(conn, "POST", f"/v1/act?session={session_id}&kind=uav",
                         _npz({"grids": grids, "aux": aux}),
                         ctype="application/x-npz")
    assert status == 400 and "NaN or Inf" in json.loads(body)["error"]
    conn.close()


@pytest.mark.parametrize("head, status", [
    (b"POST /v1/session HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    (b"POST /v1/session HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"POST /v1/session HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
    (b"POST /v1/session HTTP/1.1\r\nContent-Length: 33554433\r\n\r\n", 413),
    (b"GARBAGE\r\n\r\n", 400),
], ids=["length-abc", "length-negative", "body-short", "body-too-large",
        "request-line"])
def test_unframeable_request_is_answered_then_closed(server, head, status):
    """Over a raw socket whose write side then closes: the server answers
    with an error status and closes, instead of dropping the connection."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(head)
        sock.shutdown(socket.SHUT_WR)
        reply = b"".join(iter(lambda: sock.recv(65536), b""))
    assert reply.startswith(b"HTTP/1.1 %d " % status), reply
    assert b"Connection: close" in reply


# ----------------------------------------------------------------------
# Fuzzed boundary: every defective body is a 4xx
# ----------------------------------------------------------------------

_JSON_CT, _NPZ_CT = "application/json", "application/x-npz"
_UGV_FIELDS = ("stop_features", "ugv_positions", "ugv_stops", "action_mask")
_NON_OBJECTS = st.one_of(st.none(), st.booleans(), st.integers(),
                         st.text(max_size=4), st.lists(st.integers(),
                                                       max_size=3))


def _defective_requests(policy, session):
    """Strategy over ``(path, body, content type, may succeed)``: an act
    or session request whose body has at least one defect, or (``may
    succeed``) a valid npz body with one byte flipped, which the server
    may still decode."""
    good = _ugv_json(policy, session)
    _, grids, aux = _probe_arrays(policy.schema)
    act, uav = "/v1/act", f"/v1/act?session={session}&kind=uav"
    ugv_npz = (f"/v1/act?session={session}&kind=ugv",
               _npz(_ugv_arrays(policy)), _NPZ_CT)

    def ugv(field, value):
        return act, json.dumps({**good, field: value}).encode(), _JSON_CT

    def uav_npz(**arrays):
        return uav, _npz({"grids": grids, "aux": aux, **arrays}), _NPZ_CT

    def flip(request, index, xor):
        path, body, ctype = request
        index %= len(body)
        return (path, body[:index] + bytes([body[index] ^ xor])
                + body[index + 1:], ctype)

    def truncate(request, index):
        path, body, ctype = request
        return path, body[:index % len(body)], ctype

    def poke(value, index, bad):
        flat = np.array(value, dtype=float).ravel()
        flat[index % flat.size] = bad
        return flat.reshape(np.shape(value))

    fields = st.sampled_from(_UGV_FIELDS)
    non_finite = st.sampled_from([np.nan, np.inf, -np.inf])
    index = st.integers(0, 1 << 20)
    good_json = json.dumps(good).encode()
    good_npz = st.sampled_from([ugv_npz, uav_npz()])
    defects = st.one_of(
        st.builds(lambda f, i, b: ugv(f, poke(good[f], i, b).tolist()),
                  fields, index, non_finite),
        st.builds(lambda f, k: ugv(f, np.ravel(good[f])[:k].tolist()),
                  fields, st.integers(0, 3)),
        st.builds(lambda f: ugv(f, [good[f]]), fields),
        st.builds(lambda f, v: ugv(f, v), fields,
                  st.one_of(st.text(max_size=4), st.dictionaries(
                      st.text(max_size=2), st.integers(), max_size=2))),
        st.builds(lambda f: (act, json.dumps(
            {k: v for k, v in good.items() if k != f}).encode(), _JSON_CT),
            fields),
        st.builds(lambda kind: (act, json.dumps(
            {**good, "kind": kind}).encode(), _JSON_CT),
            st.text(max_size=4).filter(lambda k: k not in ("ugv", "uav"))),
        _NON_OBJECTS.map(lambda v: (act, json.dumps(v).encode(), _JSON_CT)),
        st.integers(0, len(good_json) - 1).map(
            lambda n: (act, good_json[:n], _JSON_CT)),
        st.builds(truncate, good_npz, index),
        st.builds(lambda name, i, b: uav_npz(
            **{name: poke({"grids": grids, "aux": aux}[name], i, b)}),
            st.sampled_from(["grids", "aux"]), index, non_finite),
        st.sampled_from([
            uav_npz(grids=np.full(grids.shape, "x")),
            uav_npz(grids=grids.astype(complex)),
            uav_npz(aux=aux[:-1]),
            uav_npz(grids=grids[..., :-1]),
            (uav, _npz({"grids": grids}), _NPZ_CT),
            # Headers over numpy's bounds: a dim int() refuses to parse,
            # and a 430 KB v2.0 header of 100 such dims.
            (uav, _with_dims(["1" * 4301]), _NPZ_CT),
            (uav, _with_dims(["9" * 4301] * 100, version=2), _NPZ_CT),
        ]),
        st.binary(max_size=64).map(lambda b: (uav, b, _NPZ_CT)),
        st.one_of(_NON_OBJECTS, st.fixed_dictionaries({"seed": st.one_of(
            _NON_OBJECTS.filter(lambda v: type(v) is not int),
            st.integers(max_value=-1), st.floats())})).map(
            lambda v: ("/v1/session", json.dumps(v).encode(), _JSON_CT)),
        st.integers(1, 10).map(
            lambda n: ("/v1/session", b'{"seed": 12}'[:n], _JSON_CT)),
    )
    flipped = st.builds(flip, good_npz, index, st.integers(1, 255))
    return st.one_of(defects.map(lambda request: (*request, False)),
                     flipped.map(lambda request: (*request, True)))


@pytest.fixture(scope="module")
def fuzz_session(server):
    conn = server.connection()
    status, body = _call(conn, "POST", "/v1/session", b'{"seed": 3}')
    conn.close()
    assert status == 200
    return json.loads(body)["session"]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_bad_requests_are_4xx(server, frozen_policy, fuzz_session,
                                     data):
    path, body, ctype, may_succeed = data.draw(
        _defective_requests(frozen_policy, fuzz_session))
    conn = server.connection()
    status, payload = _call(conn, "POST", path, body, ctype=ctype)
    conn.close()
    assert 400 <= status < 500 or (may_succeed and status == 200), \
        (status, payload)


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_bad_request_leaves_other_streams_unchanged(server, frozen_policy,
                                                    data):
    """Sessions A and B alternate requests; a defective request on A in
    between changes neither stream's sampled actions."""
    conn = server.connection()

    def actions(with_bad_request: bool):
        sids = [json.loads(_call(conn, "POST", "/v1/session",
                                 b'{"seed": %d}' % seed)[1])["session"]
                for seed in (11, 12)]
        out = []
        for step in range(3):
            for sid in sids:
                status, body = _call(conn, "POST", "/v1/act", json.dumps(
                    _ugv_json(frozen_policy, sid)).encode())
                assert status == 200, body
                out.append(json.loads(body)["actions"])
            if with_bad_request and step == 1:
                # A flipped body that still decodes would draw from A's rng.
                path, body, ctype, _ = data.draw(
                    _defective_requests(frozen_policy, sids[0])
                    .filter(lambda request: not request[3]))
                assert 400 <= _call(conn, "POST", path, body, ctype)[0] < 500
        return out

    try:
        control = actions(with_bad_request=False)
        assert actions(with_bad_request=True) == control
    finally:
        conn.close()


# ----------------------------------------------------------------------
# One loop tick: batching and shedding without a network in between
# ----------------------------------------------------------------------

def _act_in_one_tick(policy, k, **engine_kwargs):
    """Route ``k`` UGV ``/v1/act`` requests into a fresh service so that
    all of them reach the engine in one loop iteration, before its first
    batch runs; returns the engine stats and the ``(status, reply)``s."""
    engine = InferenceEngine(policy, **engine_kwargs)

    async def main():
        service = DispatchService(policy, engine, port=0)
        sid = json.loads(service._create_session(b"{}")[2])["session"]
        body = json.dumps(_ugv_json(policy, sid)).encode()
        replies = await asyncio.gather(*(
            service._route("POST", "/v1/act", {}, body) for _ in range(k)))
        return [(status, json.loads(payload))
                for status, _, payload, *_ in replies]

    replies = asyncio.run(main())
    return engine.stats, replies


def test_one_tick_of_requests_runs_as_one_batch(frozen_policy):
    stats, replies = _act_in_one_tick(frozen_policy, 5, max_batch=8,
                                      timeout_ms=5000)
    assert [status for status, _ in replies] == [200] * 5
    assert [reply["batch_size"] for _, reply in replies] == [5] * 5
    assert stats["batches"] == 1 and stats["completed"] == 5


def test_overload_sheds_with_429(frozen_policy):
    """Twelve requests staged before any batch runs against a queue of
    four: exactly four are answered (in two batches of two) and eight are
    shed with 429, with no 5xx."""
    stats, replies = _act_in_one_tick(frozen_policy, 12, max_batch=2,
                                      queue_limit=4, timeout_ms=5000)
    statuses = [status for status, _ in replies]
    assert sorted(statuses) == [200] * 4 + [429] * 8, replies
    assert all(reply["error"].startswith("overloaded")
               for status, reply in replies if status == 429)
    assert stats["shed"] == 8
    assert stats["batches"] == 2 and stats["completed"] == 4


class _ThreadRecordingPolicy:
    """Delegates to a frozen policy, recording the thread of each forward."""

    def __init__(self, policy):
        self._policy = policy
        self.threads = set()

    def __getattr__(self, name):
        return getattr(self._policy, name)

    def ugv_forward(self, obs):
        self.threads.add(threading.current_thread())
        return self._policy.ugv_forward(obs)


def test_server_runs_batches_on_its_loop_thread(frozen_policy):
    """A running server has no engine thread: the forward runs on the
    event loop's own thread."""
    policy = _ThreadRecordingPolicy(frozen_policy)
    srv = _Server(policy, max_batch=8, timeout_ms=5000)
    try:
        assert "serve-engine" not in {t.name for t in threading.enumerate()}
        conn = srv.connection()
        sid = json.loads(_call(conn, "POST", "/v1/session", b"{}")[1])[
            "session"]
        status, _ = _call(conn, "POST", "/v1/act", json.dumps(
            _ugv_json(frozen_policy, sid)).encode())
        conn.close()
        assert status == 200
        assert policy.threads == {srv.thread}
    finally:
        srv.stop()


def test_act_200_carries_server_timing(server, frozen_policy, session_id):
    """Every /v1/act 200 reports its decode, queue, forward and encode
    stages in a Server-Timing header; other replies carry none."""
    _, grids, aux = _probe_arrays(frozen_policy.schema)
    conn = server.connection()
    requests = [("/v1/act", json.dumps(_ugv_json(frozen_policy, session_id))
                 .encode(), "application/json"),
                (f"/v1/act?session={session_id}&kind=uav",
                 _npz({"grids": grids, "aux": aux}), "application/x-npz")]
    for path, body, ctype in requests:
        conn.request("POST", path, body=body, headers={"Content-Type": ctype})
        resp = conn.getresponse()
        resp.read()
        assert resp.status == 200
        stages = {}
        for entry in resp.getheader("Server-Timing").split(","):
            name, _, dur = entry.strip().partition(";dur=")
            stages[name] = float(dur)
        assert list(stages) == ["decode", "queue", "forward", "encode"]
        assert all(value >= 0.0 for value in stages.values()), stages
    conn.request("GET", "/healthz")
    resp = conn.getresponse()
    resp.read()
    assert resp.getheader("Server-Timing") is None
    conn.close()


# ----------------------------------------------------------------------
# SIGTERM drain (real process)
# ----------------------------------------------------------------------

def _spawn_serve(args: list[str], tmp_path: Path):
    """Start ``python ARGS --port 0 --ready-file ...``; return the process
    and the bound host and port once it listens."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
    ready = tmp_path / "ready"
    proc = subprocess.Popen(
        [sys.executable, *args, "--port", "0", "--ready-file", str(ready)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    deadline = time.perf_counter() + 60
    while len(ready.read_text().split() if ready.exists() else ()) != 2:
        if proc.poll() is not None or time.perf_counter() > deadline:
            if proc.poll() is None:
                proc.kill()
            pytest.fail(f"service never came up:\n{proc.communicate()[0]}")
        time.sleep(0.05)
    host, port = ready.read_text().split()
    return proc, host, int(port)


def _reap(proc: subprocess.Popen) -> None:
    """Kill ``proc`` if it still runs, wait for it and close its pipe."""
    if proc.poll() is None:
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()


def test_sigterm_drains_in_flight_requests(artifact_dir, frozen_policy,
                                           tmp_path):
    """SIGTERM mid-traffic: the in-flight request completes, new work is
    refused with 503, and the process exits 0."""
    # Every UGV forward in this process sleeps 0.5 s first.
    proc, host, port = _spawn_serve(
        [str(SERVE_TESTS / "slow_serve.py"), "0.5", str(artifact_dir),
         "--timeout-ms", "5000"], tmp_path)
    conn = http.client.HTTPConnection(host, port, timeout=20)
    try:
        status, body = _call(conn, "POST", "/v1/session", b"{}")
        assert status == 200
        sid = json.loads(body)["session"]
        payload = json.dumps(_ugv_json(frozen_policy, sid)).encode()

        # Fire a request that will sit in the slowed forward, then
        # SIGTERM while it is in flight.
        result: dict = {}

        def act():
            result["response"] = _call(conn, "POST", "/v1/act", payload)

        worker = threading.Thread(target=act)
        worker.start()
        time.sleep(0.05)  # let the request reach the engine queue
        proc.send_signal(signal.SIGTERM)
        worker.join(timeout=30)
        assert result["response"][0] == 200, result

        rc = proc.wait(timeout=30)
        assert rc == 0, proc.stdout.read()

        # After drain the socket is gone: new connections are refused.
        with pytest.raises(OSError):
            fresh = http.client.HTTPConnection(host, port, timeout=2)
            fresh.request("GET", "/healthz")
            fresh.getresponse()
    finally:
        conn.close()
        _reap(proc)


# ----------------------------------------------------------------------
# Many concurrent connections (real process)
# ----------------------------------------------------------------------

def test_many_keepalive_streams_all_answered(artifact_dir, tmp_path):
    """200 concurrent keep-alive scenario streams against the real
    process: every request is answered 200 (no shed, timeout or connect
    error), p99 stays under 500 ms, and SIGTERM then exits 0."""
    pool = build_observation_pool("kaist", "smoke", 4, 2, seed=0)
    proc, host, port = _spawn_serve(
        ["-m", "repro", "serve", str(artifact_dir), "--max-batch", "64",
         "--queue-limit", "2048", "--timeout-ms", "5000"], tmp_path)
    try:
        summary = asyncio.run(run_load(host, port, pool, streams=200,
                                       requests_per_stream=3, ramp_s=3.0))
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        output = proc.stdout.read()
    finally:
        _reap(proc)
    assert summary["completed"] == 200 * 3, summary
    assert summary["shed"] == summary["timeouts"] == 0, summary
    assert summary["connect_errors"] == 0 and not summary["errors"], summary
    assert summary["latency_ms"]["p99"] < 500.0, summary
    assert rc == 0, output
