"""Generic CDAG builders.

Structured CDAG families used throughout the tests, validation benches
and related-work comparisons:

* chains and independent chain bundles (the degenerate case highlighted
  after Corollary 2: matrix multiplication without its input/output
  vertices is a set of independent chains pebblable with 2 red pebbles);
* reduction trees (binary and k-ary) — the dot-product sub-CDAGs of CG
  and GMRES;
* broadcast (fan-out) trees;
* diamond / grid DAGs — the dependence pattern of 1D stencils over time
  (each interior point depends on its neighbours at the previous step);
* butterfly (FFT) networks — used by the related-work comparisons
  (Ranjan et al. style bounds);
* r-pyramids;
* complete bipartite-style outer products.

Vertices are named with readable tuples such as ``("chain", i, j)`` so
that failures in tests and games are easy to interpret; the naming also
keeps builders deterministic, which matters for reproducible benchmark
numbers.  The builders the large spill games use (chains and grid
stencils) compute their edges as numpy id arrays for
:meth:`CDAG.from_ids <repro.core.cdag.CDAG.from_ids>`, so no vertex name
is hashed per edge; their loop forms are kept as test oracles
(``tests/core/reference_builders.py``).
"""

from __future__ import annotations

from itertools import product
from typing import List, Sequence, Tuple

import numpy as np

from .cdag import CDAG, Vertex

__all__ = [
    "chain_cdag",
    "independent_chains_cdag",
    "reduction_tree_cdag",
    "broadcast_tree_cdag",
    "diamond_cdag",
    "grid_stencil_cdag",
    "butterfly_cdag",
    "pyramid_cdag",
    "outer_product_cdag",
    "dense_layer_cdag",
]


def chain_cdag(length: int, name: str = "chain") -> CDAG:
    """A simple dependence chain ``in -> v_1 -> ... -> v_length``.

    The single source is tagged input and the single sink output.  I/O
    complexity with any ``S >= 1`` red pebbles is exactly 2 (one load,
    one store) under the RBW game.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    vertices: List[Vertex] = [("chain", 0)]
    edges: List[Tuple[Vertex, Vertex]] = []
    for i in range(1, length + 1):
        vertices.append(("chain", i))
        edges.append((("chain", i - 1), ("chain", i)))
    return CDAG.from_edge_list(
        vertices=vertices,
        edges=edges,
        inputs=[("chain", 0)],
        outputs=[("chain", length)],
        name=name,
    )


def independent_chains_cdag(
    num_chains: int, length: int, name: str = "chains"
) -> CDAG:
    """``num_chains`` disjoint chains, each of the given length.

    This is the structure left of a matrix-multiplication CDAG after
    deleting its input and output vertices (the accumulation chains
    ``C_ij += A_ik * B_kj`` over ``k``); each chain can be evaluated with
    2 red pebbles, which is why naive input/output deletion gives weak
    bounds and motivates Theorem 3 (retagging).

    Vertex ``("chains", c, i)`` has id ``c * (length + 1) + i``, so the
    edges are id arrays: every id but a chain's last feeds the next one.
    """
    if num_chains < 1 or length < 1:
        raise ValueError("num_chains and length must be >= 1")
    ids = np.arange(num_chains * (length + 1)).reshape(num_chains, -1)
    src = ids[:, :-1].ravel()
    vertices = product(("chains",), range(num_chains), range(length + 1))
    return CDAG.from_ids(vertices, src, src + 1, ids[:, 0], ids[:, -1],
                         name=name)


def reduction_tree_cdag(
    num_leaves: int, arity: int = 2, name: str = "reduce"
) -> CDAG:
    """A k-ary reduction tree over ``num_leaves`` input leaves.

    The leaves are inputs, the root is the single output.  Dot products
    (``<<r, r>>`` in CG, ``<<w, v_j>>`` in GMRES) have this shape, with
    an elementwise-multiply layer feeding the tree.
    """
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    if arity < 2:
        raise ValueError("arity must be >= 2")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    inputs: List[Vertex] = []
    level = 0
    current: List[Vertex] = []
    for i in range(num_leaves):
        v: Vertex = ("reduce", 0, i)
        vertices.append(v)
        inputs.append(v)
        current.append(v)
    while len(current) > 1:
        level += 1
        nxt: List[Vertex] = []
        for j in range(0, len(current), arity):
            group = current[j : j + arity]
            v = ("reduce", level, j // arity)
            vertices.append(v)
            for u in group:
                edges.append((u, v))
            nxt.append(v)
        current = nxt
    return CDAG.from_edge_list(vertices, edges, inputs, [current[0]], name=name)


def broadcast_tree_cdag(
    num_leaves: int, arity: int = 2, name: str = "bcast"
) -> CDAG:
    """A fan-out tree: one input value broadcast to ``num_leaves`` outputs."""
    if num_leaves < 1:
        raise ValueError("num_leaves must be >= 1")
    if arity < 2:  # a narrower tree never reaches num_leaves
        raise ValueError("arity must be >= 2")
    root: Vertex = ("bcast", 0, 0)
    vertices: List[Vertex] = [root]
    edges: List[Tuple[Vertex, Vertex]] = []
    current: List[Vertex] = [root]
    level = 0
    while len(current) < num_leaves:
        level += 1
        nxt: List[Vertex] = []
        for i, parent in enumerate(current):
            for k in range(arity):
                if len(nxt) + len(current) - i - 1 >= num_leaves and k > 0:
                    # keep tree minimal once enough leaves can be reached
                    pass
                child: Vertex = ("bcast", level, len(nxt))
                vertices.append(child)
                edges.append((parent, child))
                nxt.append(child)
                if len(nxt) >= num_leaves:
                    break
            if len(nxt) >= num_leaves:
                # remaining parents keep their value as leaves
                nxt.extend(current[i + 1 :])
                break
        current = nxt
    return CDAG.from_edge_list(vertices, edges, [root], current[:num_leaves], name=name)


def diamond_cdag(width: int, depth: int, name: str = "diamond") -> CDAG:
    """A "diamond"/grid DAG: ``depth`` rows of ``width`` vertices where
    vertex ``(t, i)`` depends on ``(t-1, i-1)``, ``(t-1, i)`` and
    ``(t-1, i+1)`` (clamped at the boundary).

    This is the CDAG of a 3-point 1D Jacobi-style stencil iterated
    ``depth - 1`` times; the first row is tagged input and the last row
    output.  Hong & Kung's "lines" argument (used in Theorem 10) applies:
    all inputs reach all outputs through vertex-disjoint paths (the
    columns).
    """
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    for t in range(depth):
        for i in range(width):
            v: Vertex = ("dmd", t, i)
            vertices.append(v)
            if t > 0:
                for di in (-1, 0, 1):
                    j = i + di
                    if 0 <= j < width:
                        edges.append((("dmd", t - 1, j), v))
    inputs = [("dmd", 0, i) for i in range(width)]
    outputs = [("dmd", depth - 1, i) for i in range(width)]
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def grid_stencil_cdag(
    shape: Sequence[int],
    timesteps: int,
    neighborhood: str = "star",
    name: str = "stencil",
) -> CDAG:
    """CDAG of an iterated d-dimensional Jacobi-style stencil.

    Parameters
    ----------
    shape:
        Grid extents ``(n_1, ..., n_d)``.
    timesteps:
        Number of sweeps ``T``; vertices exist for ``t = 0..T`` where row
        ``t=0`` holds the inputs.
    neighborhood:
        ``"star"`` (2d+1-point: offsets ±1 along each axis plus centre) or
        ``"box"`` (3^d-point: all offsets in {-1,0,1}^d, the "9-point"
        stencil of Theorem 10 when d=2).
    """
    shape = tuple(int(n) for n in shape)
    if any(n < 1 for n in shape) or timesteps < 1:
        raise ValueError("shape entries and timesteps must be >= 1")
    d = len(shape)
    if neighborhood == "star":
        offsets = [tuple(0 for _ in range(d))]
        for axis in range(d):
            for sign in (-1, 1):
                off = [0] * d
                off[axis] = sign
                offsets.append(tuple(off))
    elif neighborhood == "box":
        offsets = list(product((-1, 0, 1), repeat=d))
    else:
        raise ValueError("neighborhood must be 'star' or 'box'")

    # Vertex ("st", t) + p has id t * P + (row-major index of p).  Each
    # point's in-bounds neighbours, in ``offsets`` order, are the same at
    # every step: find them once, as (point, offset) arrays.
    P = int(np.prod(shape))
    coords = np.indices(shape).reshape(d, P).T
    q = coords[:, None, :] + np.asarray(offsets, dtype=np.int64).reshape(
        len(offsets), d)
    inside = ((q >= 0) & (q < np.asarray(shape, dtype=np.int64))).all(axis=2)
    strides = np.asarray([int(np.prod(shape[k + 1:])) for k in range(d)],
                         dtype=np.int64)
    near = (q @ strides)[inside]
    point = np.repeat(np.arange(P), inside.sum(axis=1))
    step = P * np.arange(timesteps)[:, None]
    points = np.arange(P)
    vertices = product(("st",), range(timesteps + 1),
                       *[range(n) for n in shape])
    return CDAG.from_ids(
        vertices, (near + step).ravel(), (point + step + P).ravel(),
        points, points + timesteps * P, name=name,
    )


def butterfly_cdag(log_n: int, name: str = "fft") -> CDAG:
    """The n-input FFT butterfly CDAG with ``n = 2**log_n``.

    ``log_n`` stages; vertex ``(s, i)`` at stage ``s >= 1`` depends on
    ``(s-1, i)`` and ``(s-1, i XOR 2^{s-1})``.  Inputs are stage 0,
    outputs are the final stage.  Classic Hong-Kung result:
    ``Q = Θ(n log n / log S)``.
    """
    if log_n < 1:
        raise ValueError("log_n must be >= 1")
    n = 1 << log_n
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    for s in range(log_n + 1):
        for i in range(n):
            v: Vertex = ("fft", s, i)
            vertices.append(v)
            if s > 0:
                stride = 1 << (s - 1)
                edges.append((("fft", s - 1, i), v))
                edges.append((("fft", s - 1, i ^ stride), v))
    inputs = [("fft", 0, i) for i in range(n)]
    outputs = [("fft", log_n, i) for i in range(n)]
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def pyramid_cdag(base: int, name: str = "pyramid") -> CDAG:
    """A 2-pyramid: row ``r`` has ``base - r`` vertices, each depending on
    the two vertices below it (rows counted from the base, r = 0).

    r-pyramids are the subject of Ranjan et al.'s bounds cited in the
    related-work section; they make good test cases because the exact
    sequential I/O is easy to reason about for small sizes.
    """
    if base < 1:
        raise ValueError("base must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    for r in range(base):
        width = base - r
        for i in range(width):
            v: Vertex = ("pyr", r, i)
            vertices.append(v)
            if r > 0:
                edges.append((("pyr", r - 1, i), v))
                edges.append((("pyr", r - 1, i + 1), v))
    inputs = [("pyr", 0, i) for i in range(base)]
    outputs = [("pyr", base - 1, 0)]
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def outer_product_cdag(n: int, name: str = "outer") -> CDAG:
    """CDAG of the outer product ``A = p × q^T`` of two length-n vectors.

    ``2n`` inputs, ``n^2`` multiply vertices each reading one element of
    ``p`` and one of ``q``; every multiply is an output.  Its I/O
    complexity is ``2n + n^2`` regardless of ``S`` (every input must be
    loaded once, every result stored once) — the example used in
    Section 3 of the paper.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    inputs: List[Vertex] = []
    outputs: List[Vertex] = []
    for i in range(n):
        vertices.append(("p", i))
        inputs.append(("p", i))
    for j in range(n):
        vertices.append(("q", j))
        inputs.append(("q", j))
    for i in range(n):
        for j in range(n):
            v: Vertex = ("A", i, j)
            vertices.append(v)
            edges.append((("p", i), v))
            edges.append((("q", j), v))
            outputs.append(v)
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)


def dense_layer_cdag(
    num_inputs: int, num_outputs: int, name: str = "dense"
) -> CDAG:
    """A complete bipartite dependence layer: every output reads every input.

    Useful as a stress case for the dominator/min-cut machinery (the
    minimum dominator of the output layer is ``min(num_inputs,
    num_outputs)``).
    """
    if num_inputs < 1 or num_outputs < 1:
        raise ValueError("num_inputs and num_outputs must be >= 1")
    vertices: List[Vertex] = []
    edges: List[Tuple[Vertex, Vertex]] = []
    inputs = [("x", i) for i in range(num_inputs)]
    outputs = [("y", j) for j in range(num_outputs)]
    vertices.extend(inputs)
    vertices.extend(outputs)
    for i in range(num_inputs):
        for j in range(num_outputs):
            edges.append((("x", i), ("y", j)))
    return CDAG.from_edge_list(vertices, edges, inputs, outputs, name=name)
