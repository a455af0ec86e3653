"""Loop versions of builders whose library form was rewritten for
speed, kept as test oracles: the library builders must produce the
same CDAG (vertex order, per-vertex predecessor and successor order,
tags and name)."""

import itertools

import numpy as np

from repro.core.cdag import CDAG


def grid_stencil_cdag(shape, timesteps, neighborhood="star",
                      name="stencil"):
    """Bounds-checks every (point, step, offset) triple."""
    shape = tuple(int(n) for n in shape)
    d = len(shape)
    if neighborhood == "star":
        offsets = [tuple(0 for _ in range(d))]
        for axis in range(d):
            for sign in (-1, 1):
                off = [0] * d
                off[axis] = sign
                offsets.append(tuple(off))
    else:
        offsets = list(itertools.product((-1, 0, 1), repeat=d))

    def in_bounds(idx):
        return all(0 <= idx[k] < shape[k] for k in range(d))

    vertices, edges = [], []
    points = list(itertools.product(*[range(n) for n in shape]))
    for t in range(timesteps + 1):
        for p in points:
            v = ("st", t) + p
            vertices.append(v)
            if t > 0:
                for off in offsets:
                    q = tuple(p[k] + off[k] for k in range(d))
                    if in_bounds(q):
                        edges.append((("st", t - 1) + q, v))
    inputs = [("st", 0) + p for p in points]
    outputs = [("st", timesteps) + p for p in points]
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def component_forest_cdag(num_components, component_size, seed=0,
                          extra_edge_prob=0.15):
    """Draws each candidate extra edge with its own ``rng.random()``."""
    vertices, edges, inputs, outputs = [], [], [], []
    for k in range(num_components):
        rng = np.random.default_rng(seed + k)
        n = component_size
        comp_edges = set()
        for j in range(1, n):
            comp_edges.add((int(rng.integers(0, j)), j))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < extra_edge_prob:
                    comp_edges.add((i, j))
        has_pred = {j for _, j in comp_edges}
        has_succ = {i for i, _ in comp_edges}
        for i in range(n):
            v = ("c", k, i)
            vertices.append(v)
            if i not in has_pred:
                inputs.append(v)
            if i not in has_succ and i in has_pred:
                outputs.append(v)
        edges.extend(
            ((("c", k, i), ("c", k, j)) for i, j in sorted(comp_edges))
        )
    return CDAG.from_edge_list(
        vertices, edges, inputs, outputs,
        name=f"forest{num_components}x{component_size}",
    )


def assert_same_cdag(got, want):
    assert got.name == want.name
    assert got.vertices == want.vertices
    assert got.inputs == want.inputs
    assert got.outputs == want.outputs
    for v in want.vertices:
        assert got.predecessors(v) == want.predecessors(v), v
        assert got.successors(v) == want.successors(v), v
