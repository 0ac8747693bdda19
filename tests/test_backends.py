"""``_accel`` is the pure kernels under the names the library calls."""

from stonekit import _accel, _kernels

KERNELS = (
    "bound_tables",
    "check_poset",
    "closure",
    "distributive_witness",
    "downset_masks",
    "transpose",
)


class TestDispatch:
    def test_backend_name_is_reported(self):
        assert _accel.backend_name() == "pure"

    def test_dispatcher_results_match_direct_pure_calls(self):
        below = [0b001, 0b011, 0b101]
        assert _accel.closure(below) == _kernels.closure(below)
        assert _accel.check_poset(below) == _kernels.check_poset(below)
        for name in KERNELS:
            assert getattr(_accel, name) is getattr(_kernels, name), name
