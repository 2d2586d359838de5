"""Reference computations the tests compare the package against, and
one-item views of the package's batched code that only the tests need."""

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from stancegraph.embed import fnv1a64
from stancegraph.errors import (DimensionMismatchError, ParseError,
                                StanceGraphError)
from stancegraph.fol import Connective, FolExpr, Predicate
from stancegraph.induce import KMEANS_MAX_ITER, ClusteringResult, _kmeans_pp_init
from stancegraph.kernel import (PaddedSubgraph, _kernel_values, _topg, _walk,
                                cross_entropy, graph_adjacency, khop_subgraphs)

_MASK64 = (1 << 64) - 1


def explicit_kernel_oracle(sub_adj: np.ndarray, sub_feat: np.ndarray,
                           filt_adj: np.ndarray, filt_feat: np.ndarray,
                           W: np.ndarray, p: int) -> float:
    """Random-walk kernel that materializes the Kronecker product and its
    p-th power. Only for small sizes."""
    S = sub_feat @ filt_feat.T
    s = S.ravel()
    a_cross = np.kron(sub_adj, filt_adj)
    powered = np.linalg.matrix_power(a_cross, p)
    return float(s @ W @ powered @ s)


def rw_kernel(sub: PaddedSubgraph, filter_feat: np.ndarray,
              filter_adj: np.ndarray, W: np.ndarray, p: int) -> float:
    """One subgraph against one filter through the package's batched kernel."""
    steps = _walk(sub.features, sub.adjacency, filter_feat, filter_adj, p)
    return float(_kernel_values(steps[0], steps[-1], W)[0])


def topg_select(scores: list[float], g: int) -> list[int]:
    """The package's top-g on one row of scores."""
    return _topg(np.asarray(scores, dtype=np.float64)[None], g)[0].tolist()


def bfs_subgraph_order(adjacency: np.ndarray, v: int, hop: int,
                       n_sub: int) -> list[int]:
    """Node v's k-hop subgraph order by one BFS: center first, then by hop
    distance then node index, truncated to n_sub."""
    undirected = (adjacency != 0) | (adjacency.T != 0)
    order, seen, frontier = [v], {v}, [v]
    for _ in range(hop):
        frontier = sorted({int(u) for w in frontier
                           for u in np.nonzero(undirected[w])[0]} - seen)
        order.extend(frontier)
        seen.update(frontier)
    return order[:n_sub]


def loop_schema_filters(graph, n_filters: int, hop: int, n_filt: int):
    """The schema filters by dict and set BFS, one center at a time: around
    each of the n_filters most populous nodes (ties to the smaller id), in
    id order, the hop neighbourhood, center first, then by the larger of
    the summed edge weights to and from the center, then id; truncated to
    n_filt and zero-padded. Returns (node_indices, features, adjacencies)
    with node_indices padded by -1."""
    order = sorted(graph.nodes, key=lambda n: (-len(n.members), n.id))
    centers = [n.id for n in order[:n_filters]]
    by_id = {n.id: n for n in graph.nodes}
    weight: dict[tuple[int, int], float] = {}
    neighbors: dict[int, set[int]] = {n.id: set() for n in graph.nodes}
    for e in graph.edges:
        weight[(e.src, e.dst)] = weight.get((e.src, e.dst), 0.0) + e.weight
        neighbors[e.src].add(e.dst)
        neighbors[e.dst].add(e.src)
    d = len(graph.nodes[0].summary_embedding)
    indices = np.full((n_filters, n_filt), -1)
    feats = np.zeros((n_filters, n_filt, d))
    adjs = np.zeros((n_filters, n_filt, n_filt))
    for f, center in enumerate(sorted(centers)):
        frontier = {center}
        seen = {center}
        for _ in range(hop):
            frontier = {v for u in frontier for v in neighbors[u]} - seen
            seen |= frontier
        others = sorted(seen - {center},
                        key=lambda v: (-max(weight.get((center, v), 0.0),
                                            weight.get((v, center), 0.0)), v))
        ids = ([center] + others)[:n_filt]
        indices[f, :len(ids)] = ids
        pos = {v: i for i, v in enumerate(ids)}
        for i, v in enumerate(ids):
            feats[f, i] = by_id[v].summary_embedding
        for (u, v), w in weight.items():
            if u in pos and v in pos:
                adjs[f, pos[u], pos[v]] = w
    return indices, feats, adjs


def _gather_subgraphs(adjacency: np.ndarray, hop: int, n_sub: int):
    """Every node's subgraph as a 0/1 gather matrix P (N, n_sub, N): the
    features are P X and the adjacencies P A P^T."""
    node_indices = khop_subgraphs(adjacency, hop, n_sub).node_indices
    gather = (node_indices[:, :, None] == np.arange(len(adjacency))
              ).astype(np.float64)
    return SimpleNamespace(gather=gather, node_indices=node_indices,
                           adjacency=gather @ adjacency @ gather.transpose(0, 2, 1))


def gather_forward(graph, model):
    """One graph through the model on its own, with gather matmuls for
    the subgraphs and a 1-D head: the minibatch engine's reference."""
    X = np.stack([np.asarray(n.embedding, dtype=np.float64) for n in graph.nodes])
    adjacency = graph_adjacency(graph, model.relation_weights)
    sub = _gather_subgraphs(adjacency, model.hop, model.n_sub)
    layer_inputs, layers = [X], []
    for layer in model.layers:
        sub_feat = sub.gather @ layer_inputs[-1]
        steps = _walk(sub_feat[:, None], sub.adjacency[:, None],
                      layer.filter_feats, layer.filter_adjs, model.p)
        scores, _ = _kernel_values(steps[0], steps[-1], layer.W)
        selected = _topg(scores, model.g)
        layers.append(SimpleNamespace(sub_feat=sub_feat, steps=steps,
                                      selected=selected))
        layer_inputs.append(np.take_along_axis(scores, selected, axis=1))
    phi = np.concatenate([lf.sum(axis=0) for lf in layer_inputs])
    pre_hidden = model.W_h @ phi + model.b_h
    hidden = np.maximum(pre_hidden, 0.0)
    logits = model.W_o @ hidden + model.b_o
    exp = np.exp(logits - np.max(logits))
    return SimpleNamespace(subgraphs=sub, layer_inputs=layer_inputs,
                           layers=layers, phi=phi,
                           pre_hidden=pre_hidden, hidden=hidden,
                           probabilities=exp / exp.sum())


def _gather_pair_backward(upstream, steps, sub_feat, sub_adj, filt_feat,
                          filt_adj, W):
    """Per (node, filter) pair, the gradients of upstream * k w.r.t. W, the
    filter features and adjacency, and the subgraph features."""
    n_pairs, n, m = steps[0].shape
    u = upstream[:, None]
    s0 = steps[0].reshape(n_pairs, n * m)
    _, w_sp = _kernel_values(steps[0], steps[-1], W)
    g_s0 = u * w_sp
    g_w = s0[:, :, None] * steps[-1].reshape(n_pairs, 1, n * m)
    g_w *= u[:, :, None]
    G = (u * (W.T @ s0[..., None])[..., 0]).reshape(n_pairs, n, m)
    g_adj = np.zeros_like(filt_adj)
    for r in range(len(steps) - 1, 0, -1):
        g_adj += np.swapaxes(G, -1, -2) @ sub_adj @ steps[r - 1]
        G = np.swapaxes(sub_adj, -1, -2) @ G @ filt_adj
    G0 = G + g_s0.reshape(n_pairs, n, m)
    return g_w, np.swapaxes(G0, -1, -2) @ sub_feat, g_adj, G0 @ filt_feat


def gather_backward(model, gold, cache, magnitude=False):
    """gather_forward's gradients: pair gradients added into each filter
    with np.add.at in (node, selected slot) order. With `magnitude`, every
    operand of the backward pass is replaced by its absolute value, which
    gives each gradient entry's sum of absolute terms: the scale of a
    rounding-error bound for any other order of the same sums."""
    t = np.abs if magnitude else (lambda a: a)
    d_logits = t(cache.probabilities - np.eye(len(cache.probabilities))[gold])
    d_pre = (t(model.W_o).T @ d_logits) * (cache.pre_hidden > 0)
    widths = [lf.shape[1] for lf in cache.layer_inputs]
    segments = np.split(t(model.W_h).T @ d_pre, np.cumsum(widths)[:-1])
    n_nodes = cache.layer_inputs[0].shape[0]
    d_X = np.tile(segments[-1], (n_nodes, 1))
    grad_layers = []
    for li in range(len(model.layers) - 1, -1, -1):
        layer, lc = model.layers[li], cache.layers[li]
        nodes, slots = np.nonzero(d_X)
        filters = lc.selected[nodes, slots]
        g_w, g_feat, g_adj, g_sub = _gather_pair_backward(
            d_X[nodes, slots], [t(s[nodes, filters]) for s in lc.steps],
            t(lc.sub_feat[nodes]), t(cache.subgraphs.adjacency[nodes]),
            t(layer.filter_feats[filters]), t(layer.filter_adjs[filters]),
            t(layer.W))
        feats = np.zeros_like(layer.filter_feats)
        adjs = np.zeros_like(layer.filter_adjs)
        np.add.at(feats, filters, g_feat)
        np.add.at(adjs, filters, g_adj)
        grad_layers.insert(0, replace(layer, filter_feats=feats,
                                      filter_adjs=adjs, W=g_w.sum(axis=0)))
        if li:
            rows = cache.subgraphs.node_indices[nodes]
            d_X = np.tile(segments[li], (n_nodes, 1))
            np.add.at(d_X, rows[rows >= 0], g_sub[rows >= 0])
    return replace(model, layers=grad_layers,
                   W_h=np.outer(d_pre, t(cache.phi)), b_h=d_pre,
                   W_o=np.outer(d_logits, t(cache.hidden)),
                   b_o=d_logits).parameters()


def loop_batch_loss_and_grads(model, batch, magnitude=False):
    """A minibatch's mean loss and gradients from gather_forward and
    gather_backward per example, gradients added onto zeros in example
    order and then divided by the batch size. With `magnitude`, the
    gradients are sums of absolute terms (see gather_backward)."""
    label_index = {label: i for i, label in enumerate(model.labels)}
    grads = {name: np.zeros_like(value)
             for name, value in model.parameters().items()}
    total = 0.0
    for ex in batch:
        gold = label_index[ex.label]
        cache = gather_forward(ex.graph, model)
        total += cross_entropy(cache.probabilities, gold)
        ex_grads = gather_backward(model, gold, cache, magnitude)
        for name in grads:
            grads[name] += ex_grads[name]
    for name in grads:
        grads[name] /= len(batch)
    return total / len(batch), grads


def loop_dataset_loss(model, examples):
    """Mean loss and predicted labels from gather_forward per example."""
    label_index = {label: i for i, label in enumerate(model.labels)}
    total = 0.0
    preds = []
    for ex in examples:
        probabilities = gather_forward(ex.graph, model).probabilities
        total += cross_entropy(probabilities, label_index[ex.label])
        preds.append(model.labels[int(np.argmax(probabilities))])
    return total / len(examples), preds


def finite_difference_errors(model, loss, grads, step=1e-4, max_entries=40):
    """Central finite differences of `loss()` against the analytic `grads`
    (by `model.parameters()` name), on at most `max_entries` entries of
    each filter's slice of a filter stack and of each other parameter,
    drawn by default_rng(13). Returns the worst relative error, the slice
    it was in, and how many entries were checked."""
    slices = []
    for name, tensor in model.parameters().items():
        if name.endswith((".filter_feats", ".filter_adjs")):
            slices += [(f"{name}[{fi}]", tensor[fi], grads[name][fi])
                       for fi in range(len(tensor))]
        else:
            slices.append((name, tensor, grads[name]))
    worst, worst_name, checked = 0.0, "", 0
    for name, values, grad in slices:
        idx = np.arange(values.size)
        if values.size > max_entries:
            idx = np.random.default_rng(13).choice(values.size, max_entries,
                                                   replace=False)
        for i in idx:
            original = values.flat[i]
            values.flat[i] = original + step
            up = loss()
            values.flat[i] = original - step
            down = loss()
            values.flat[i] = original
            fd = (up - down) / (2 * step)
            an = grad.flat[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1e-3)
            if rel > worst:
                worst, worst_name = rel, name
        checked += len(idx)
    return worst, worst_name, checked


def loop_kmeans(points: np.ndarray, k: int, seed: int,
                repairs: list | None = None) -> ClusteringResult:
    """Lloyd's algorithm as `induce.kmeans` ran it before the Gram-expanded
    assignment: every step takes the argmin of the one-shot difference
    broadcast, and the empty-cluster repair reads the same matrix. Each
    repair is appended to `repairs` as (step, cluster) when given. Only for
    small sizes: the broadcast builds an (n, k, d) temporary."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    assignments = np.full(n, -1, dtype=np.int64)
    for step in range(KMEANS_MAX_ITER):
        diff = points[:, None, :] - centroids[None, :, :]
        dists = np.sum(diff * diff, axis=2)
        new_assignments = np.argmin(dists, axis=1)
        # repair empty clusters from the farthest points
        for cluster in range(k):
            if not np.any(new_assignments == cluster):
                assigned = dists[np.arange(n), new_assignments]
                farthest = int(np.argmax(assigned))
                new_assignments[farthest] = cluster
                centroids[cluster] = points[farthest]
                if repairs is not None:
                    repairs.append((step, cluster))
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(k):
            centroids[cluster] = points[assignments == cluster].mean(axis=0)
    inertia = float(np.sum((points - centroids[assignments]) ** 2))
    return ClusteringResult(k=k, assignments=assignments, centroids=centroids,
                            inertia=inertia, seed=seed)


def loop_silhouette(points: np.ndarray, assignments: np.ndarray) -> float:
    """Mean silhouette from the full (n, n) distance matrix and one loop over
    points and labels; singletons and a = b = 0 points score 0. Only for
    small sizes: the broadcast builds an (n, n, d) temporary."""
    points = np.asarray(points, dtype=np.float64)
    assignments = np.asarray(assignments)
    labels = np.unique(assignments)
    diff = points[:, None, :] - points[None, :, :]
    dmat = np.sqrt(np.maximum(np.sum(diff * diff, axis=2), 0.0))
    scores = np.zeros(points.shape[0], dtype=np.float64)
    for i in range(points.shape[0]):
        own = assignments[i]
        mask_own = (assignments == own)
        size_own = int(mask_own.sum())
        if size_own <= 1:
            continue
        a = float(dmat[i, mask_own].sum() / (size_own - 1))
        b = min(float(dmat[i, assignments == other].mean())
                for other in labels if other != own)
        if a + b == 0.0:
            continue
        scores[i] = (b - a) / (a + b)
    return float(scores.mean())


class ZeroVectorError(StanceGraphError):
    pass


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity clamped to [-1, 1]; rejects zero vectors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"cosine shapes {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine of a zero vector is undefined")
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def scalar_splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step on Python ints: (output, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def scalar_normals(seed: int, count: int) -> np.ndarray:
    """Counter-based standard normals, one splitmix64 step and one Box-Muller
    half at a time."""
    state = seed
    out = np.empty(count, dtype=np.float64)
    i = 0
    while i < count:
        u1, state = scalar_splitmix64(state)
        u2, state = scalar_splitmix64(state)
        # map to (0,1]; u1 must avoid 0 for the log
        f1 = (u1 + 1) / 2.0**64
        f2 = u2 / 2.0**64
        r = math.sqrt(-2.0 * math.log(f1))
        out[i] = r * math.cos(2.0 * math.pi * f2)
        i += 1
        if i < count:
            out[i] = r * math.sin(2.0 * math.pi * f2)
            i += 1
    return out


def scalar_embed(text: str, dimension: int) -> np.ndarray:
    """test_embed on top of scalar_normals."""
    vec = scalar_normals(fnv1a64(text), dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


# ---------------------------------------------------------------------------
# FOL lines: a tokenizer that lexes the whole line up front, and a parser
# that reads argument lists a second time from the raw string.

_ORACLE_MAX_NESTING = 500
_QUANTIFIERS = {"∀", "∃"}

_DELIMS = set("()∧∨¬→&|~,")
_WORD_OPS = {"AND": "and", "OR": "or", "NOT": "not",
             "implies": "implies", "IMPLIES": "implies"}


def _scan_name(line: str, i: int) -> int:
    """End index of a name token starting at i (name = run of non-delimiter,
    non-whitespace chars, stopping before an embedded '->')."""
    n = len(line)
    j = i
    while j < n:
        c = line[j]
        if c.isspace() or c in _DELIMS or line.startswith("->", j):
            break
        j += 1
    return j


@dataclass(frozen=True)
class _Token:
    kind: str  # 'and' 'or' 'not' 'implies' 'lparen' 'rparen' 'name' 'end'
    text: str
    offset: int


def _tokenize(line: str) -> list[_Token]:
    """Every token of the line, up front, ending with an 'end' token."""
    tokens: list[_Token] = []
    i = 0
    n = len(line)
    while i < n:
        c = line[i]
        if c.isspace():
            i += 1
            continue
        if c in _QUANTIFIERS:
            i += 1
            # drop the bound variable and an optional '.'/':' separator
            while i < n and line[i].isspace():
                i += 1
            i = _scan_name(line, i)
            while i < n and line[i] in ".:":
                i += 1
            continue
        if c in "∧&":
            tokens.append(_Token("and", c, i))
            i += 1
            continue
        if c in "∨|":
            tokens.append(_Token("or", c, i))
            i += 1
            continue
        if c in "¬~":
            tokens.append(_Token("not", c, i))
            i += 1
            continue
        if c == "→":
            tokens.append(_Token("implies", c, i))
            i += 1
            continue
        if line.startswith("->", i):
            tokens.append(_Token("implies", "->", i))
            i += 2
            continue
        if c == "(":
            tokens.append(_Token("lparen", c, i))
            i += 1
            continue
        if c == ")":
            tokens.append(_Token("rparen", c, i))
            i += 1
            continue
        if c == ",":
            tokens.append(_Token("comma", c, i))
            i += 1
            continue
        j = _scan_name(line, i)
        if j > i:
            word = line[i:j]
            if word in _WORD_OPS:
                tokens.append(_Token(_WORD_OPS[word], word, i))
            else:
                tokens.append(_Token("name", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i,
                         {"predicate", "connective", "("})
    tokens.append(_Token("end", "", n))
    return tokens


class OracleFolParser:
    """Recursive descent over the token list, re-synchronised past each
    argument list that _scan_args reads from the raw line."""

    def __init__(self, line: str):
        self.line = line
        self.tokens = _tokenize(line)
        self.pos = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected token {tok.text!r}", tok.offset, {kind})
        return self.advance()

    def parse(self) -> FolExpr:
        expr = self.parse_implies()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.offset, {"end"})
        return expr

    def parse_implies(self) -> FolExpr:
        expr = self.parse_or()
        while self.peek().kind == "implies":
            self.advance()
            rhs = self.parse_or()
            expr = Connective("implies", (expr, rhs))
        return expr

    def parse_or(self) -> FolExpr:
        first = self.parse_and()
        children = [first]
        while self.peek().kind == "or":
            self.advance()
            children.append(self.parse_and())
        if len(children) == 1:
            return first
        return Connective("or", tuple(children))

    def parse_and(self) -> FolExpr:
        first = self.parse_unary()
        children = [first]
        while self.peek().kind == "and":
            self.advance()
            children.append(self.parse_unary())
        if len(children) == 1:
            return first
        return Connective("and", tuple(children))

    def parse_unary(self) -> FolExpr:
        if self.peek().kind == "not":
            self.advance()
            child = self.parse_unary()
            if isinstance(child, Predicate):
                return replace(child, negated=not child.negated)
            return Connective("not", (child,))
        return self.parse_atom()

    def parse_atom(self) -> FolExpr:
        tok = self.peek()
        if tok.kind == "lparen":
            self.depth += 1
            if self.depth > _ORACLE_MAX_NESTING:
                raise ParseError("nesting too deep", tok.offset, {")"})
            self.advance()
            expr = self.parse_implies()
            self.expect("rparen")
            self.depth -= 1
            return expr
        if tok.kind == "name":
            return self.parse_predicate()
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}",
                         tok.offset, {"predicate", "(", "¬"})

    def parse_predicate(self) -> Predicate:
        name_tok = self.expect("name")
        if self.peek().kind != "lparen":
            return Predicate(name_tok.text, (), False)
        # arguments are raw text up to the matching paren; consume from the
        # source string directly so args may contain arbitrary characters
        open_off = self.peek().offset
        args, end = self._scan_args(open_off)
        # resynchronize the token stream past the argument region
        while self.tokens[self.pos].offset < end and self.tokens[self.pos].kind != "end":
            self.pos += 1
        return Predicate(name_tok.text, tuple(args), False)

    def _scan_args(self, open_off: int) -> tuple[list[str], int]:
        depth = 0
        args: list[str] = []
        buf: list[str] = []
        i = open_off
        n = len(self.line)
        while i < n:
            c = self.line[i]
            if c == "(":
                depth += 1
                if depth > 1:
                    buf.append(c)
            elif c == ")":
                depth -= 1
                if depth == 0:
                    arg = _normalize_arg("".join(buf))
                    if arg or args:
                        args.append(arg)
                    if args and all(a == "" for a in args):
                        args = []
                    return args, i + 1
                buf.append(c)
            elif c == "," and depth == 1:
                args.append(_normalize_arg("".join(buf)))
                buf = []
            else:
                buf.append(c)
            i += 1
        raise ParseError("unterminated argument list", open_off, {")"})




def _normalize_arg(text: str) -> str:
    return " ".join(text.split())


def oracle_parse_fol_line(line: str) -> FolExpr:
    """parse_fol_line on top of the up-front tokenizer."""
    if not line or not line.strip():
        raise ParseError("empty line", 0, {"predicate", "("})
    line = line.rstrip().rstrip(".")
    if not line:
        raise ParseError("empty line", 0, {"predicate", "("})
    return OracleFolParser(line).parse()
