"""Property-based tests (hypothesis) for ``MoveLog.select_columns``.

For arbitrary logs (arbitrary rows, block sizes, in RAM or spilled) and
arbitrary column subsets in any order, the column-selective read agrees
chunk for chunk with the full :meth:`MoveLog.iter_chunks` read.  The
engines' bulk replay validators read logs through this path.

``hypothesis`` is a test extra (``pip install .[test]``); the module
skips cleanly when it is absent so tier-1 never hard-depends on it.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.pebbling import MoveLog  # noqa: E402
from repro.pebbling.state import _NUM_OPCODES  # noqa: E402

_SETTINGS = dict(max_examples=30, deadline=None)

#: one move row: (kind, vid, loc, src) — locs/srcs either absent (-1) or
#: a packed (level, index) instance
row_strategy = st.tuples(
    st.integers(min_value=0, max_value=_NUM_OPCODES - 1),
    st.integers(min_value=0, max_value=99),
    st.one_of(
        st.just(-1),
        st.integers(min_value=1, max_value=3).map(lambda lv: (lv << 24) | 1),
    ),
    st.just(-1),
)

log_rows_strategy = st.lists(row_strategy, min_size=0, max_size=60)


def build_log(rows, block_size, spill, tmp_base):
    log = MoveLog(block_size=block_size, spill=(tmp_base if spill else False))
    for kind, vid, loc, src in rows:
        log.append_ids(kind, vid, loc, src)
    return log


class TestSelectColumnsProperties:
    @settings(**_SETTINGS)
    @given(
        rows=log_rows_strategy,
        block_size=st.integers(min_value=1, max_value=16),
        spill=st.booleans(),
        subset=st.lists(
            st.sampled_from(
                ["kinds", "vertex_ids", "locations", "sources"]
            ),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    def test_selected_reads_agree_with_full_reads(
        self, rows, block_size, spill, subset, tmp_path_factory
    ):
        base = str(tmp_path_factory.mktemp("sel"))
        log = build_log(rows, block_size, spill, base)
        full = {
            "kinds": log.kinds(),
            "vertex_ids": log.vertex_ids(),
            "locations": log.locations(),
            "sources": log.sources(),
        }
        chunks = list(log.select_columns(*subset))
        if rows:
            for pos, name in enumerate(subset):
                cat = np.concatenate([c[pos] for c in chunks])
                assert np.array_equal(cat, full[name]), name
        else:
            assert chunks == []
        # chunk boundaries line up with iter_chunks
        assert [len(c[0]) for c in chunks] == [
            len(c[0]) for c in log.iter_chunks()
        ]
        log.close()

    def test_select_columns_rejects_unknown_names(self):
        log = MoveLog()
        with pytest.raises(ValueError, match="unknown column"):
            log.select_columns("steps")
        with pytest.raises(ValueError, match="at least one"):
            log.select_columns()
