"""Exact minimum-weight perfect matching for small dense graphs.

The matcher is the primal-dual blossom algorithm for maximum-weight matching
(Edmonds 1965; the formulation of Galil, "Efficient algorithms for finding
maximum matching in graphs", ACM Computing Surveys 1986), exact for integer
weights in O(V^3).  `_max_weight_matching` is a port of networkx's
`max_weight_matching` (networkx 3.6.1, BSD-3, notice below) to index lists:
vertices are 0..n-1, blossoms take ids n..2n-1, and the graph is a neighbour
list per vertex plus a dense weight table.  Its control flow and every
iteration order are networkx's, so it makes the same choice on every tie and
returns the same matching as networkx does on the graph built from the same
nodes and edges in the same order.  Only what this module never asks for is
left out: non-integer weights, the maximum-weight (not max-cardinality)
variant and self-loops.  Nor does it keep networkx's table of allowable
edges: an edge between two top-level blossoms is allowable exactly when its
slack, computed in the scan, is zero, since the table only ever marks
zero-slack edges and within a stage a dual update leaves the slack of an
S-T edge unchanged.

Minimization is the max-cardinality maximum-weight matching of the negated
weights: all perfect matchings share the same cardinality, so maximizing
sum(-w) minimizes sum(w).  The T-join solver calls this once per connected
component of the dual with six or more odd faces (smaller ones pair up in
closed form), so each call sees one closure graph: the complete graph over
that component's odd faces, weighted by their shortest-path distances in the
dual.  The tests also call it on the paper's gadget graphs, to cross-check
the T-join solve.
"""

from __future__ import annotations

from itertools import chain

from .errors import MatchingInfeasibleError


def min_weight_perfect_matching(
    node_ids, weighted_edges
) -> tuple[list[tuple[int, int]], int]:
    """Return (sorted matched pairs, total weight), both exact.

    weighted_edges are (u, v, w) with integer w >= 0 between listed nodes;
    parallel edges collapse to the cheapest, self-loops are rejected.  Raises
    MatchingInfeasibleError when the node count is odd, an edge is malformed,
    or no perfect matching exists.
    """
    nodes = sorted(node_ids)
    if len(nodes) % 2 != 0:
        raise MatchingInfeasibleError(
            f"odd node count {len(nodes)}: no perfect matching exists"
        )
    if not nodes:
        return [], 0

    n = len(nodes)
    index = {node: i for i, node in enumerate(nodes)}
    # weight[i][j]: minus the cheapest cost of an edge ij, None without one.
    weight: list[list[int | None]] = [[None] * n for _ in range(n)]
    for u, v, w in weighted_edges:
        if u == v:
            raise MatchingInfeasibleError("self-loops cannot be matched")
        if u not in index or v not in index:
            raise MatchingInfeasibleError(f"edge ({u}, {v}) has an endpoint not in node_ids")
        if int(w) != w or w < 0:
            raise MatchingInfeasibleError(f"weight {w!r} is not a non-negative integer")
        i, j = index[u], index[v]
        if weight[i][j] is None or -w > weight[i][j]:
            weight[i][j] = weight[j][i] = -int(w)
    # The scan order decides among tied optima.  Ascending neighbours are the
    # order networkx's adjacency lists them in after sorted edge insertion.
    nbrs = [[j for j, x in enumerate(row) if x is not None] for row in weight]

    mate = _max_weight_matching(nbrs, weight)
    if -1 in mate:
        raise MatchingInfeasibleError(
            f"no perfect matching: matched {n - mate.count(-1)} of {n} nodes"
        )
    pairs = [(i, j) for i, j in enumerate(mate) if i < j]
    total = -sum(weight[i][j] for i, j in pairs)
    return [(nodes[i], nodes[j]) for i, j in pairs], total


# The code below is derived from networkx's `max_weight_matching`
# (networkx/algorithms/matching.py), distributed under this notice:
#
#   Copyright (c) 2004-2025, NetworkX Developers
#   Aric Hagberg <hagberg@lanl.gov>
#   Dan Schult <dschult@colgate.edu>
#   Pieter Swart <swart@lanl.gov>
#   All rights reserved.
#
#   Redistribution and use in source and binary forms, with or without
#   modification, are permitted provided that the following conditions are
#   met:
#
#     * Redistributions of source code must retain the above copyright
#       notice, this list of conditions and the following disclaimer.
#
#     * Redistributions in binary form must reproduce the above
#       copyright notice, this list of conditions and the following
#       disclaimer in the documentation and/or other materials provided
#       with the distribution.
#
#     * Neither the name of the NetworkX Developers nor the names of its
#       contributors may be used to endorse or promote products derived
#       from this software without specific prior written permission.
#
#   THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#   "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#   LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#   A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#   OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#   SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#   LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#   DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#   THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#   (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#   OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
#
# Many terms in the comments are explained in Galil's paper.


def _max_weight_matching(
    nbrs: list[list[int]], weight: list[list[int | None]]
) -> list[int]:
    """Maximum-weight matching among the maximum-cardinality ones, as a mate
    list (-1 for a single vertex).

    nbrs[v] lists v's neighbours (not v itself) in the order they are
    scanned; weight[v][w] = weight[w][v] is the integer weight of edge vw,
    and entries for non-edges are never read.  No edge is cached as
    allowable: the scan takes zero slack as the test, so `weight` is the one
    n x n table.
    """
    n = len(nbrs)

    # Ids 0..n-1 are vertices and n..2n-1 non-trivial blossoms.  Each blossom
    # has at least three children, so fewer than n/2 are alive at once, and
    # an expanded blossom's id returns to `unused`.  Per-id state lives in
    # lists indexed by id; where networkx clears a dict, the list is reset
    # in full.  The keys of `blossomdual` are the live blossoms in creation
    # order, the order networkx iterates its blossoms in.
    unused = list(range(2 * n - 1, n - 1, -1))

    maxweight = 0
    for v in range(n):
        for w in nbrs[v]:
            if weight[v][w] > maxweight:
                maxweight = weight[v][w]

    # mate[v] is v's partner, or -1 while v is single.
    mate = [-1] * n

    # label[b] of a top-level blossom or vertex: 0 free, 1 S, 2 T (5 is an
    # S label carrying a breadcrumb of scan_blossom).  A vertex inside a
    # T-blossom has label 2 iff it is reachable from an S-vertex outside it.
    label = [0] * (2 * n)

    # labeledge[b] = (v, w) is the edge through which top-level b got its
    # label, w in b, or None if b's base is single.  For a vertex w inside a
    # T-blossom with label 2, (v, w) reaches w from outside the blossom.
    labeledge: list[tuple[int, int] | None] = [None] * (2 * n)

    # inblossom[v]: the top-level blossom containing vertex v (v itself when
    # v is top-level).
    inblossom = list(range(n))

    # blossomparent[b]: the immediate parent of sub-blossom b, -1 if b is
    # top-level.  blossombase[b]: b's base vertex.
    blossomparent = [-1] * (2 * n)
    blossombase = list(range(n)) + [-1] * n

    # blossomchilds[b]: b's sub-blossoms in order round the blossom, from the
    # base; blossomedges[b][i] = (v, w) joins v in childs[i] to w in
    # childs[i + 1] (wrapping).
    blossomchilds: list[list[int] | None] = [None] * (2 * n)
    blossomedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)

    # bestedge[w] of a free vertex (or unreached vertex in a T-blossom): its
    # least-slack edge from an S-vertex; bestedge[b] of a top-level
    # S-blossom: its least-slack edge to another S-blossom; None if none.
    bestedge: list[tuple[int, int] | None] = [None] * (2 * n)

    # mybestedges[b] of a top-level S-blossom: its least-slack edges to
    # neighbouring S-blossoms, None until computed.  Used for delta3.
    mybestedges: list[list[tuple[int, int]] | None] = [None] * (2 * n)

    # dualvar[v] = 2 * u(v), so integer weights keep every value integral.
    dualvar = [maxweight] * n

    # blossomdual[b] = z(b) of each live non-trivial blossom.
    blossomdual: dict[int, int] = {}

    # Newly discovered S-vertices.
    queue: list[int] = []

    def slack(v, w):
        """2 * slack of edge (v, w) (not valid inside blossoms)."""
        return dualvar[v] + dualvar[w] - 2 * weight[v][w]

    def leaves(b):
        """Leaf vertices of blossom b, in networkx's order."""
        out = []
        stack = [*blossomchilds[b]]
        while stack:
            t = stack.pop()
            if t >= n:
                stack.extend(blossomchilds[t])
            else:
                out.append(t)
        return out

    def assign_label(w, t, v):
        """Label the top-level blossom containing w with t, reached through
        an edge from v (None for a single base)."""
        b = inblossom[w]
        assert label[w] == 0 and label[b] == 0
        label[w] = label[b] = t
        if v is not None:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == 1:
            # b became an S-blossom; queue its vertices.
            if b >= n:
                queue.extend(leaves(b))
            else:
                queue.append(b)
        elif t == 2:
            # b became a T-blossom; label its mate S (only the base of b
            # has an external mate).
            base = blossombase[b]
            assign_label(mate[base], 1, base)

    def scan_blossom(v, w):
        """Trace back from v and w: the base of a new blossom, or -1 when an
        augmenting path was found."""
        path = []
        base = -1
        while v != -1:
            # Look for a breadcrumb in v's blossom or put a new breadcrumb.
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            assert label[b] == 1
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # The base of blossom b is single; stop tracing this path.
                assert mate[blossombase[b]] == -1
                v = -1
            else:
                assert labeledge[b][0] == mate[blossombase[b]]
                v = labeledge[b][0]
                b = inblossom[v]
                assert label[b] == 2
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            # Alternate between both paths.
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base, v, w):
        """Make a new S-blossom with the given base through S-vertices v, w;
        its dual is zero and its T-vertices become S and are queued."""
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        blossomchilds[b] = path = []
        blossomedges[b] = edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            assert label[bv] == 2 or (
                label[bv] == 1 and labeledge[bv][0] == mate[blossombase[bv]]
            )
            v = labeledge[bv][0]
            bv = inblossom[v]
        # Add the base sub-blossom; reverse lists.
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            edgs.append((labeledge[bw][1], labeledge[bw][0]))
            assert label[bw] == 2 or (
                label[bw] == 1 and labeledge[bw][0] == mate[blossombase[bw]]
            )
            w = labeledge[bw][0]
            bw = inblossom[w]
        assert label[bb] == 1
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                # A T-vertex turns S inside the new S-blossom.
                queue.append(v)
            inblossom[v] = b
        # Compute mybestedges[b].
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if bv >= n:
                if mybestedges[bv] is not None:
                    # The sub-blossom won't need its list again.
                    nblist = mybestedges[bv]
                    mybestedges[bv] = None
                else:
                    nblist = [(v, w) for v in leaves(bv) for w in nbrs[v]]
            else:
                nblist = [(bv, w) for w in nbrs[bv]]
            for k in nblist:
                i, j = k
                if inblossom[j] == b:
                    i, j = j, i
                bj = inblossom[j]
                if (
                    bj != b
                    and label[bj] == 1
                    and (bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))
                ):
                    bestedgeto[bj] = k
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        mybestslack = 0
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b, endstage):
        """Expand top-level blossom b; at the end of a stage, recursively
        expand its zero-dual sub-blossoms too.  A trampoline over generators
        keeps the call stack flat."""

        def _recurse(b, endstage):
            # Convert sub-blossoms into top-level blossoms.
            for s in blossomchilds[b]:
                blossomparent[s] = -1
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield s
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # A T-blossom expanded during a stage: relabel its sub-blossoms.
            if (not endstage) and label[b] == 2:
                childs = blossomchilds[b]
                edges = blossomedges[b]
                # The sub-blossom through which b got its label.
                entrychild = inblossom[labeledge[b][1]]
                j = childs.index(entrychild)
                if j & 1:
                    # Start index is odd; go forward and wrap.
                    j -= len(childs)
                    jstep = 1
                else:
                    # Start index is even; go backward.
                    jstep = -1
                # Move along the blossom until we get to the base.
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    q = edges[j][1] if jstep == 1 else edges[j - 1][0]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    # Step to the next S-sub-blossom.
                    j += jstep
                    if jstep == 1:
                        v, w = edges[j]
                    else:
                        w, v = edges[j - 1]
                    # Step to the next T-sub-blossom.
                    j += jstep
                # Relabel the base T-sub-blossom without stepping through to
                # its mate (so not through assign_label).
                bw = childs[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue along the blossom until we get back to entrychild.
                j += jstep
                while childs[j] != entrychild:
                    # Is the sub-blossom reachable from a neighbouring
                    # S-vertex outside the expanding blossom?
                    bv = childs[j]
                    if label[bv] == 1:
                        # It just got label S through a neighbour; leave it.
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    # A reachable vertex inside: label the sub-blossom T.
                    if label[v]:
                        assert label[v] == 2
                        assert inblossom[v] == bv
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely.
            label[b] = 0
            labeledge[b] = None
            bestedge[b] = None
            blossomparent[b] = -1
            blossombase[b] = -1
            blossomchilds[b] = blossomedges[b] = mybestedges[b] = None
            del blossomdual[b]
            unused.append(b)

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            for s in top:
                stack.append(_recurse(s, endstage))
                break
            else:
                stack.pop()

    def augment_blossom(b, v):
        """Swap matched and unmatched edges along the alternating path in b
        from vertex v to the base; v becomes b's base.  A trampoline over
        generators keeps the call stack flat."""

        def _recurse(b, v):
            # Bubble up from v to an immediate sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            # Recursively deal with the first sub-blossom.
            if t >= n:
                yield (t, v)
            childs = blossomchilds[b]
            edges = blossomedges[b]
            i = j = childs.index(t)
            if i & 1:
                # Start index is odd; go forward and wrap.
                j -= len(childs)
                jstep = 1
            else:
                # Start index is even; go backward.
                jstep = -1
            # Move along the blossom until we get to the base.
            while j != 0:
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = edges[j]
                else:
                    x, w = edges[j - 1]
                if t >= n:
                    yield (t, w)
                # Step to the next sub-blossom and augment it recursively.
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the sub-blossoms to put the new base at the front.
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = edges[i:] + edges[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            for args in top:
                stack.append(_recurse(*args))
                break
            else:
                stack.pop()

    def augment_matching(v, w):
        """Swap matched and unmatched edges along the augmenting path
        between two single vertices through S-vertices v and w."""
        for s, j in ((v, w), (w, v)):
            # Match s to j, then trace back from s to a single vertex.
            while True:
                bs = inblossom[s]
                assert label[bs] == 1
                assert (labeledge[bs] is None and mate[blossombase[bs]] == -1) or (
                    labeledge[bs][0] == mate[blossombase[bs]]
                )
                # Augment through the S-blossom from s to base.
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    # Reached a single vertex; stop.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                assert label[bt] == 2
                # Trace one more step back.
                s, j = labeledge[bt]
                # Augment through the T-blossom from j to base.
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    def verify_optimum():
        """Assert the complementary slackness certificate of optimality."""
        # Vertex duals may be negative; shift them all by one constant.
        vdualoffset = max(0, -min(dualvar))
        # 0. all dual variables are non-negative
        assert min(dualvar) + vdualoffset >= 0
        assert not blossomdual or min(blossomdual.values()) >= 0
        # The blossoms containing each vertex, outermost first.
        nested = []
        for v in range(n):
            vblossoms = [v]
            while blossomparent[vblossoms[-1]] != -1:
                vblossoms.append(blossomparent[vblossoms[-1]])
            vblossoms.reverse()
            nested.append(vblossoms)
        # 0. all edges have non-negative slack and
        # 1. all matched edges have zero slack;
        for i in range(n):
            for j in nbrs[i]:
                if j < i:
                    continue
                s = dualvar[i] + dualvar[j] - 2 * weight[i][j]
                for bi, bj in zip(nested[i], nested[j]):
                    if bi != bj:
                        break
                    s += 2 * blossomdual[bi]
                assert s >= 0
                if mate[i] == j or mate[j] == i:
                    assert mate[i] == j and mate[j] == i
                    assert s == 0
        # 2. all single vertices have zero dual value;
        for v in range(n):
            assert mate[v] != -1 or dualvar[v] + vdualoffset == 0
        # 3. all blossoms with positive dual value are full.
        for b, z in blossomdual.items():
            if z > 0:
                assert len(blossomedges[b]) % 2 == 1
                for i, j in blossomedges[b][1::2]:
                    assert mate[i] == j and mate[j] == i

    # Each iteration of the main loop is a stage, which finds an augmenting
    # path and uses it to improve the matching.
    while True:
        # Remove labels from top-level blossoms/vertices.
        label[:] = [0] * (2 * n)
        labeledge[:] = [None] * (2 * n)
        # Forget all about least-slack edges.
        bestedge[:] = [None] * (2 * n)
        for b in blossomdual:
            mybestedges[b] = None
        queue.clear()

        # Label single blossoms/vertices with S and put them in the queue.
        for v in range(n):
            if mate[v] == -1 and label[inblossom[v]] == 0:
                assign_label(v, 1, None)

        # Each iteration of this loop is a substage, which looks for an
        # augmenting path and, when there is none, pumps slack out of the
        # dual variables.
        augmented = False
        while True:
            # Label every vertex reachable through an alternating path.
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == 1
                # Duals change only between scans; inblossom[v] only when
                # add_blossom absorbs v.
                bv = inblossom[v]
                dv = dualvar[v]
                wv = weight[v]
                for w in nbrs[v]:
                    bw = inblossom[w]
                    if bv == bw:
                        # this edge is internal to a blossom; ignore it
                        continue
                    kslack = dv + dualvar[w] - 2 * wv[w]
                    if kslack <= 0:
                        # zero slack: the edge is allowable
                        if label[bw] == 0:
                            # (C1) w is free: label w T and its mate S.
                            assign_label(w, 2, v)
                        elif label[bw] == 1:
                            # (C2) w is an S-vertex in another blossom:
                            # a new blossom or an augmenting path.
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w is inside a T-blossom but not reached from
                            # outside it yet; mark it reached (needed to
                            # relabel when the T-blossom expands).
                            assert label[bw] == 2
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        # least-slack non-allowable edge to another S-blossom
                        best = bestedge[bv]
                        if best is None:
                            bestedge[bv] = (v, w)
                        else:
                            p, q = best
                            if kslack < dualvar[p] + dualvar[q] - 2 * weight[p][q]:
                                bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        # w is free (or unreached in a T-blossom) but not
                        # reachable yet: its least-slack edge
                        best = bestedge[w]
                        if best is None:
                            bestedge[w] = (v, w)
                        else:
                            p, q = best
                            if kslack < dualvar[p] + dualvar[q] - 2 * weight[p][q]:
                                bestedge[w] = (v, w)

            if augmented:
                break

            # No augmenting path under these constraints: compute delta and
            # reduce slack (duals, slacks and deltas are doubled).  delta1
            # is max-weight (not max-cardinality) matching only.
            deltatype = -1
            delta = deltaedge = deltablossom = None

            # delta2: least slack of an edge between an S-vertex and a free
            # vertex.
            for v in range(n):
                if label[inblossom[v]] == 0 and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]

            # delta3: half the least slack of an edge between S-blossoms.
            for b in chain(range(n), blossomdual):
                if blossomparent[b] == -1 and label[b] == 1 and bestedge[b] is not None:
                    kslack = slack(*bestedge[b])
                    assert (kslack % 2) == 0
                    d = kslack // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]

            # delta4: least z of a top-level T-blossom.
            for b, z in blossomdual.items():
                if (
                    blossomparent[b] == -1
                    and label[b] == 2
                    and (deltatype == -1 or z < delta)
                ):
                    delta = z
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # No further improvement possible; max-cardinality optimum
                # reached.  A final delta update makes it verifiable.
                deltatype = 1
                delta = max(0, min(dualvar))

            # Update dual variables according to delta.
            for v in range(n):
                lab = label[inblossom[v]]
                if lab == 1:
                    # S-vertex: 2*u = 2*u - 2*delta
                    dualvar[v] -= delta
                elif lab == 2:
                    # T-vertex: 2*u = 2*u + 2*delta
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        # top-level S-blossom: z = z + 2*delta
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        # top-level T-blossom: z = z - 2*delta
                        blossomdual[b] -= delta

            # Take action at the point where minimum delta occurred.
            if deltatype == 1:
                # No further improvement possible; optimum reached.
                break
            elif deltatype in (2, 3):
                # Use the least-slack edge, now of zero slack, to continue
                # the search.
                v = deltaedge[0]
                assert label[inblossom[v]] == 1
                queue.append(v)
            elif deltatype == 4:
                # Expand the least-z blossom.
                expand_blossom(deltablossom, False)

        # Paranoia check that the matching is symmetric.
        for v in range(n):
            assert mate[v] == -1 or mate[mate[v]] == v

        # Stop when no more augmenting path can be found.
        if not augmented:
            break

        # End of a stage; expand all S-blossoms which have zero dual.
        for b in list(blossomdual):
            if b not in blossomdual:
                continue  # already expanded
            if blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    verify_optimum()
    return mate
