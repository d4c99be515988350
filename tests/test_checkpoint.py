"""Unit tests for the snapshot layer: the state codec, program
state_dict defaults, channel snapshot/restore, and checkpoint capture."""

import numpy as np
import pytest

from repro.core import ChannelEngine, SUM_F64, VertexProgram
from repro.core.channels.combined import CombinedMessage
from repro.runtime.checkpoint import (
    SNAPSHOT_VERSION,
    capture_snapshot,
    decode_state,
    encode_state,
)
from repro.runtime.serialization import INT64, pair_codec
from helpers import line_graph


class TestStateCodec:
    def test_round_trip_everything(self):
        state = {
            "none": None,
            "flag": True,
            "count": -17,
            "ratio": 0.25,
            "name": "wörker",
            "blob": b"\x00\xffraw",
            "arr_f": np.linspace(0, 1, 7),
            "arr_2d": np.arange(12, dtype=np.int32).reshape(3, 4),
            "arr_empty": np.empty(0, dtype=np.float32),
            "arr_bool": np.array([True, False, True]),
            "a_list": [1, "two", np.arange(3)],
            "a_tuple": (1.5, None),
            "nested": {"inner": {"deep": np.ones(2)}, 42: "int-keyed"},
        }
        out = decode_state(encode_state(state))
        assert set(out) == set(state)
        assert out["none"] is None
        assert out["flag"] is True and isinstance(out["flag"], bool)
        assert out["count"] == -17
        assert out["ratio"] == 0.25
        assert out["name"] == "wörker"
        assert out["blob"] == b"\x00\xffraw"
        np.testing.assert_array_equal(out["arr_f"], state["arr_f"])
        assert out["arr_f"].dtype == np.float64
        np.testing.assert_array_equal(out["arr_2d"], state["arr_2d"])
        assert out["arr_2d"].shape == (3, 4)
        assert out["arr_empty"].size == 0 and out["arr_empty"].dtype == np.float32
        assert out["arr_bool"].dtype == bool
        assert out["a_list"][1] == "two"
        np.testing.assert_array_equal(out["a_list"][2], np.arange(3))
        assert out["a_tuple"] == (1.5, None)
        np.testing.assert_array_equal(out["nested"]["inner"]["deep"], np.ones(2))
        assert out["nested"][42] == "int-keyed"

    def test_structured_dtype_round_trip(self):
        codec = pair_codec(INT64, INT64)
        arr = np.zeros(3, dtype=codec.dtype)
        arr["a"] = [1, 2, 3]
        arr["b"] = [-1, -2, -3]
        out = decode_state(encode_state({"pairs": arr}))["pairs"]
        assert out.dtype == codec.dtype
        np.testing.assert_array_equal(out["a"], arr["a"])
        np.testing.assert_array_equal(out["b"], arr["b"])

    def test_decoded_arrays_are_writable(self):
        out = decode_state(encode_state({"x": np.arange(4)}))
        out["x"][0] = 99  # must not raise (no read-only frombuffer views)

    def test_rejects_unknown_version(self):
        blob = bytearray(encode_state({"x": 1}))
        blob[:8] = (SNAPSHOT_VERSION + 1).to_bytes(8, "little")
        with pytest.raises(ValueError, match="version"):
            decode_state(bytes(blob))

    def test_rejects_unencodable_value(self):
        with pytest.raises(TypeError, match="cannot checkpoint"):
            encode_state({"fn": lambda: None})
        # object arrays hold pointers: refused, not encoded as garbage
        with pytest.raises(TypeError, match="cannot checkpoint .* dtype object"):
            encode_state({"a": np.array([[1, 2], None, "x"], dtype=object)})
        with pytest.raises(TypeError, match="cannot checkpoint"):
            encode_state({"a": np.zeros(2, dtype=[("x", np.int64), ("o", object)])})

    def test_byte_counts_are_real(self):
        small = len(encode_state({"x": np.zeros(10)}))
        large = len(encode_state({"x": np.zeros(1000)}))
        assert large - small == 990 * 8  # payload grows by exactly the data


class _Prog(VertexProgram):
    def __init__(self, worker):
        super().__init__(worker)
        self.msg = CombinedMessage(worker, SUM_F64)
        self.rank = np.zeros(worker.num_local)
        self.phase = "init"
        self.iters = 3

    def compute(self, v):
        v.vote_to_halt()


class _BadProg(_Prog):
    def __init__(self, worker):
        super().__init__(worker)
        self.oracle = object()  # not checkpointable


class TestProgramStateDict:
    def _worker(self, program_cls=_Prog):
        engine = ChannelEngine(line_graph(6), program_cls, num_workers=2)
        return engine.workers[0]

    def test_generic_capture_skips_worker_and_channels(self):
        state = self._worker().program.state_dict()
        assert set(state) == {"rank", "phase", "iters"}

    def test_load_restores_arrays_in_place(self):
        prog = self._worker().program
        alias = prog.rank
        state = prog.state_dict()
        prog.rank[:] = 7.0
        prog.phase = "late"
        prog.load_state_dict(state)
        assert prog.rank is alias  # aliasing closures keep working
        assert np.all(prog.rank == 0.0)
        assert prog.phase == "init"

    def test_state_dict_copies(self):
        prog = self._worker().program
        state = prog.state_dict()
        prog.rank[:] = 5.0
        assert np.all(state["rank"] == 0.0)

    def test_uncapturable_attribute_raises(self):
        with pytest.raises(TypeError, match="override state_dict"):
            self._worker(_BadProg).program.state_dict()


class TestCaptureSnapshot:
    def test_snapshot_shape_and_sizes(self):
        engine = ChannelEngine(line_graph(8), _Prog, num_workers=3)
        snap = capture_snapshot(engine)
        assert snap.version == SNAPSHOT_VERSION
        assert snap.superstep == 0
        assert len(snap.blobs) == 3
        assert snap.nbytes == sum(snap.worker_nbytes)
        assert all(n > 0 for n in snap.worker_nbytes)

    def test_channel_snapshot_round_trip(self):
        engine = ChannelEngine(line_graph(8), _Prog, num_workers=2)
        ch = engine.workers[0].program.msg
        ch._slots[:] = 3.5
        ch._has_msg[:] = True
        state = decode_state(encode_state(ch.snapshot()))
        ch._slots[:] = 0.0
        ch._has_msg[:] = False
        ch.restore(state)
        assert np.all(ch._slots == 3.5)
        assert np.all(ch._has_msg)
