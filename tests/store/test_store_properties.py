"""Hypothesis property suite for the store's content addressing
(:mod:`repro.store.keys`), mirroring the ``config_hash`` discipline
pinned in ``tests/evaluation/test_manifest_properties.py``:

* **Reorder invariance** — ``artifact_key`` is a pure function of the
  canonical spec: dict key order and tuple/list spelling never change
  the address.
* **Sensitivity** — the address *does* change whenever the kind, the
  spec contents, or the code-version stamp change (distinct artifacts
  can never alias).
* **One canonical form** — plain dicts, lists and scalars take a fast
  path through ``canonical_config``; the same values behind other
  ``Mapping`` and tuple types take the general path, and both give the
  same form (literal keys are pinned in ``test_pinned_keys.py``).
"""

import types

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.evaluation.manifest import (  # noqa: E402
    canonical_config,
    dumps_canonical,
)
from repro.store.keys import artifact_key  # noqa: E402

_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False, width=64)
    | st.text(max_size=8)
)
_values = st.recursive(
    _scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_specs = st.dictionaries(st.text(min_size=1, max_size=8), _values, max_size=6)


def _reversed_dict(d):
    if isinstance(d, dict):
        return {k: _reversed_dict(d[k]) for k in reversed(list(d))}
    if isinstance(d, list):
        return [_reversed_dict(x) for x in d]
    return d


def _lists_to_tuples(d):
    if isinstance(d, dict):
        return {k: _lists_to_tuples(v) for k, v in d.items()}
    if isinstance(d, list):
        return tuple(_lists_to_tuples(x) for x in d)
    return d


class TestKeyStability:
    @settings(max_examples=60)
    @given(_specs)
    def test_invariant_under_key_reorder(self, spec):
        assert artifact_key("bound", spec) == artifact_key(
            "bound", _reversed_dict(spec)
        )

    @settings(max_examples=60)
    @given(_specs)
    def test_invariant_under_tuple_list_spelling(self, spec):
        assert artifact_key("bound", spec) == artifact_key(
            "bound", _lists_to_tuples(spec)
        )

    @settings(max_examples=60)
    @given(_specs)
    def test_key_is_function_of_canonical_spec(self, spec):
        assert artifact_key("bound", spec) == artifact_key(
            "bound", canonical_config(spec)
        )


class TestKeySensitivity:
    @settings(max_examples=60)
    @given(_specs)
    def test_kind_always_changes_the_key(self, spec):
        assert artifact_key("bound", spec) != artifact_key("compiled", spec)

    @settings(max_examples=60)
    @given(_specs)
    def test_code_version_always_changes_the_key(self, spec):
        assert artifact_key("bound", spec, "src-aaaa") != artifact_key(
            "bound", spec, "src-bbbb"
        )

    @settings(max_examples=60)
    @given(_specs, st.text(min_size=1, max_size=8), _values)
    def test_spec_change_changes_the_key(self, spec, key, value):
        changed = dict(spec)
        changed[key] = value
        if canonical_config(changed) != canonical_config(spec):
            assert artifact_key("bound", spec) != artifact_key(
                "bound", changed
            )
        elif dumps_canonical(canonical_config(changed), indent=None) == \
                dumps_canonical(canonical_config(spec), indent=None):
            assert artifact_key("bound", spec) == artifact_key(
                "bound", changed
            )
        # else: Python-equal values with distinct JSON (False/0, 1/1.0);
        # no assertion, as the key hashes the JSON, not the value.

    def test_builder_params_seed_distinguish(self):
        base = {"builder": "chain", "params": {"length": 8}, "seed": 0}
        for variant in (
            {**base, "builder": "chains"},
            {**base, "params": {"length": 9}},
            {**base, "seed": 1},
        ):
            assert artifact_key("compiled", base) != artifact_key(
                "compiled", variant
            )


def _general(value):
    """``value`` behind types the fast path of ``canonical_config`` does
    not take: dicts as read-only mapping proxies, lists as tuples of
    those, ints and floats as numpy scalars."""
    if isinstance(value, dict):
        return types.MappingProxyType(
            {k: _general(v) for k, v in value.items()})
    if isinstance(value, list):
        return tuple(_general(v) for v in value)
    if type(value) is int:
        return np.int64(value)
    if type(value) is float:
        return np.float64(value)
    return value


class TestOneCanonicalForm:
    @settings(max_examples=200)
    @given(_specs)
    def test_fast_and_general_paths_agree(self, spec):
        general = _general(spec)
        assert dumps_canonical(canonical_config(spec), indent=None) == \
            dumps_canonical(canonical_config(general), indent=None)
        assert artifact_key("bound", spec, "v") == \
            artifact_key("bound", general, "v")
