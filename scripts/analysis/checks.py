"""The whole-program checks of zerodb-analyzer.

Each check consumes the merged micro-IR (`{rel: FileIR}`) produced by
textparse.py and yields ir.Finding objects. Suppression
(`// zerodb-lint: allow(<rule>)` on the line or the line above) is applied
here.

Rules:
  nondet-call       banned nondeterminism source (clocks, rand, getenv,
                    random_device) outside the allowlist
                    (src/common/rng.*, src/obs/, bench/)
  nondet-iter       range-for over an unordered container whose body
                    reaches an order-sensitive sink (serialization or
                    sequence accumulation)
  lock-order        cycle in the cross-TU lock acquisition-order graph
  lifetime-return   std::string_view / reference return bound to a
                    function-local or temporary
  lifetime-member   class stores a string_view or reference member
  layering          #include edge that points *up* the module DAG
  unit-mix          interprocedural dimensional analysis over the
                    common/units.h tag lattice (see dataflow.py)
  statusor-deref    StatusOr dereferenced on a path where ok() was never
                    established; Status results that die unchecked
  hot-alloc         allocation/container growth reachable from per-row
                    executor/trainer loops (see dataflow.py)
"""

import re

from . import dataflow
from .ir import Finding, strip_code

ALL_RULES = ("nondet-call", "nondet-iter", "lock-order", "lifetime-return",
             "lifetime-member", "layering",
             "unit-mix", "statusor-deref", "hot-alloc")

# Module DAG, bottom (most fundamental) to top: an #include may only point
# at a strictly earlier module. This is the architecture contract from
# DESIGN.md: common -> obs -> {storage, stats, plan, ...} -> {optimizer,
# exec, train, zeroshot, whatif}.
MODULE_ORDER = (
    "common", "obs", "nn", "catalog", "storage", "plan", "stats",
    "datagen", "sql", "exec", "runtime", "workload", "featurize", "models",
    "optimizer", "train", "zeroshot", "whatif")
_MODULE_INDEX = {module: i for i, module in enumerate(MODULE_ORDER)}

# -- determinism audit -------------------------------------------------

# Fully-qualified call spellings that read ambient nondeterministic state.
BANNED_QUALIFIED = frozenset((
    "time", "::time", "std::time", "clock", "std::clock", "gettimeofday",
    "clock_gettime", "rand", "srand", "std::rand", "std::srand", "random",
    "rand_r", "getenv", "std::getenv", "secure_getenv", "mkstemp",
    "tmpnam", "localtime", "localtime_r"))
BANNED_CLOCK_SUFFIX = "_clock::now"

# Order-sensitive sinks: feeding them from unordered iteration makes the
# produced artifact depend on hash-table layout. Commutative sinks
# (counter Add, set insert, numeric min/max) are deliberately absent.
SINK_RE = re.compile(
    r"\b(?:ToJson|Append|Set|push_back|emplace_back|WriteTo|Serialize|"
    r"AppendTo|Write)\s*\(|<<|\+=")

UNORDERED_RE = re.compile(r"\bunordered_(?:multi)?(?:map|set)\b")


def _determinism_allowlisted(rel):
    return (rel.startswith("src/obs/")
            or rel.startswith("src/common/rng.")
            or rel.startswith("bench/"))


def check_determinism(files):
    findings = []
    for rel in sorted(files):
        fir = files[rel]
        if _determinism_allowlisted(rel):
            continue
        for call in fir.calls:
            banned = (call.qualified in BANNED_QUALIFIED
                      or call.qualified.endswith(BANNED_CLOCK_SUFFIX)
                      or call.name == "random_device")
            if banned and not fir.suppressed(call.line, "nondet-call"):
                findings.append(Finding(
                    rel, call.line, "nondet-call",
                    f"call to nondeterministic `{call.qualified}`; clocks, "
                    "rand and env reads are confined to src/common/rng.*, "
                    "src/obs/ and bench/ so training/serving stays "
                    "bit-reproducible (route timing through obs, "
                    "randomness through zerodb::Rng)"))
        for name, type_text in fir.decl_types.items():
            if "random_device" in type_text:
                line = _decl_line(fir, name, "random_device")
                if line and not fir.suppressed(line, "nondet-call"):
                    findings.append(Finding(
                        rel, line, "nondet-call",
                        f"`std::random_device` object `{name}`; draw seeds "
                        "from zerodb::Rng (common/rng.h) so runs replay"))
        code = None
        for loop in fir.range_fors:
            unordered = (UNORDERED_RE.search(loop.container_type or "")
                         or UNORDERED_RE.search(loop.container or ""))
            if not unordered:
                continue
            if code is None:
                code = strip_code(fir.raw_lines)
            body = "\n".join(
                code[loop.body_begin - 1:loop.body_end])
            if SINK_RE.search(body) and \
                    not fir.suppressed(loop.line, "nondet-iter"):
                findings.append(Finding(
                    rel, loop.line, "nondet-iter",
                    f"range-for over unordered container "
                    f"`{loop.container.strip()}` feeds an order-sensitive "
                    "sink; iteration order is a hash-table artifact — "
                    "collect and sort keys first so exported bytes are "
                    "stable across runs and libstdc++ versions"))
    return findings


def _decl_line(fir, name, type_fragment):
    pattern = re.compile(
        r"\b" + re.escape(type_fragment) + r"\b.*\b" + re.escape(name)
        + r"\b")
    for idx, line in enumerate(fir.raw_lines):
        if pattern.search(line):
            return idx + 1
    return 0


# -- lock-order --------------------------------------------------------

def build_lock_graph(files):
    """Returns {(held, acquired): (rel, line)} — the first site where
    `acquired` was taken while `held` was held."""
    edges = {}
    for rel in sorted(files):
        fir = files[rel]
        if rel.startswith("src/common/sync."):
            continue  # the wrapper's own internals
        locks = sorted(fir.locks, key=lambda acquire: acquire.line)
        for i, held in enumerate(locks):
            for acquired in locks[i + 1:]:
                if acquired.line > held.held_until:
                    break
                if acquired.line >= held.line:
                    key = (held.lock_id, acquired.lock_id)
                    edges.setdefault(key, (rel, acquired.line))
    return edges


def _find_cycles(edges):
    """Tarjan SCCs over the lock graph; returns the set of edges that sit
    inside a cycle (SCC of size > 1, or a self-loop)."""
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index_of, low, on_stack = {}, {}, set()
    stack, sccs = [], []
    counter = [0]

    def strongconnect(v):
        work = [(v, iter(sorted(graph[v])))]
        index_of[v] = low[v] = counter[0]
        counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                sccs.append(component)

    for vertex in sorted(graph):
        if vertex not in index_of:
            strongconnect(vertex)

    cyclic = set()
    for component in sccs:
        if len(component) > 1:
            for (a, b) in edges:
                if a in component and b in component:
                    cyclic.add((a, b))
    for (a, b) in edges:  # self-loop: nested acquisition of one lock
        if a == b:
            cyclic.add((a, b))
    return cyclic


def _path_back(cyclic, start, goal):
    """Shortest chain of cyclic edges leading from `start` to `goal`
    (breadth-first, sorted successors so the reported chain is stable)."""
    previous = {start: None}
    frontier = [start]
    while frontier and goal not in previous:
        successors = []
        for node in frontier:
            for (a, b) in sorted(cyclic):
                if a == node and b not in previous:
                    previous[b] = (a, b)
                    successors.append(b)
        frontier = successors
    chain = []
    node = goal
    while previous.get(node) is not None:
        chain.append(previous[node])
        node = previous[node][0]
    return chain[::-1]


def check_lock_order(files):
    """Cycles in the cross-TU lock acquisition-order graph.

    Kept next to clang's -Wthread-safety because that analysis does not
    see a two-lock order inversion unless the code carries acquired-before
    annotations (clang's `acquired_before` / `acquired_after` attributes),
    and zerodb has none: this check is the only guard against an
    A-then-B / B-then-A deadlock."""
    edges = build_lock_graph(files)
    cyclic = _find_cycles(edges)
    findings = []
    for (a, b) in sorted(cyclic):
        rel, line = edges[(a, b)]
        fir = files[rel]
        if fir.suppressed(line, "lock-order"):
            continue
        if a == b:
            message = (f"`{a}` acquired while already held — "
                       "zerodb::Mutex is not reentrant, this self-deadlocks")
        else:
            opposite = ", ".join(
                f"`{p}` then `{q}` at {edges[(p, q)][0]}:{edges[(p, q)][1]}"
                for p, q in _path_back(cyclic, b, a))
            message = (f"acquiring `{b}` while holding `{a}` closes a "
                       f"lock-order cycle; the opposite order is taken at "
                       f"{opposite} — pick one global order and "
                       "restructure")
        findings.append(Finding(rel, line, "lock-order", message))
    return findings


# -- lifetime ----------------------------------------------------------

# Expression shapes that materialize a temporary std::string.
_TEMP_STRING_RE = re.compile(
    r"std::string\s*\(|\.str\s*\(\s*\)|\+\s*\"\"|\"\"\s*\+|"
    r"std::to_string\s*\(")
_OWNING_LOCAL_RE = re.compile(
    r"\b(?:std::)?(?:string|vector|deque|map|set|unordered_\w+|"
    r"ostringstream|stringstream)\b")


def check_lifetime(files):
    findings = []
    for rel in sorted(files):
        fir = files[rel]
        for func in fir.functions:
            return_type = func.return_type
            is_view = "string_view" in return_type
            is_ref = return_type.rstrip().endswith("&")
            if not (is_view or is_ref):
                continue
            for ret in func.returns:
                if fir.suppressed(ret.line, "lifetime-return"):
                    continue
                expr = ret.expr
                # Convict only when the named local *owns* its storage.
                # Iterators, pointers and reference locals project into
                # someone else's buffer (usually a member), which is fine.
                base = _base_expr_identifier(expr)
                local_type = func.locals.get(base, "")
                flagged = (
                    _OWNING_LOCAL_RE.search(local_type) is not None
                    and "*" not in local_type
                    and not local_type.rstrip().endswith("&"))
                if not flagged and is_view and expr and \
                        _TEMP_STRING_RE.search(expr):
                    flagged = True
                if flagged:
                    kind = ("std::string_view" if is_view
                            else f"reference ({return_type.strip()})")
                    findings.append(Finding(
                        rel, ret.line, "lifetime-return",
                        f"`{func.qualified or func.name}` returns a {kind} "
                        f"bound to function-local storage (`{expr}`); the "
                        "view dangles the moment the frame is gone — "
                        "return by value or take the buffer from the "
                        "caller"))
        for cls in fir.classes:
            for member in cls.members:
                if fir.suppressed(member.line, "lifetime-member"):
                    continue
                findings.append(Finding(
                    rel, member.line, "lifetime-member",
                    f"`{cls.name}::{member.name}` stores "
                    f"`{member.type_text}`; a view/reference member ties "
                    "the object's validity to an unowned buffer — store a "
                    "value (or document the lifetime contract and "
                    "suppress)"))
    return findings


def _base_expr_identifier(expr):
    m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", expr or "")
    return m.group(1) if m else ""


# -- layering ----------------------------------------------------------

def check_layering(files):
    findings = []
    for rel in sorted(files):
        fir = files[rel]
        module = fir.module or fir.fixture_module()
        if module not in _MODULE_INDEX:
            continue
        for include in fir.includes:
            dep = include.header.split("/")[0] if "/" in include.header \
                else ""
            if dep not in _MODULE_INDEX or dep == module:
                continue
            if _MODULE_INDEX[dep] > _MODULE_INDEX[module]:
                if fir.suppressed(include.line, "layering"):
                    continue
                findings.append(Finding(
                    rel, include.line, "layering",
                    f"module `{module}` (layer {_MODULE_INDEX[module]}) "
                    f"includes `{include.header}` from `{dep}` (layer "
                    f"{_MODULE_INDEX[dep]}): a back-edge in the module "
                    "DAG common -> obs -> {storage,stats,plan,...} -> "
                    "{optimizer,exec,train,zeroshot,whatif} — invert the "
                    "dependency (hooks/interface in the lower layer)"))
    return findings


# -- driver ------------------------------------------------------------

def run_all(files):
    """Runs every check; returns the findings sorted by location."""
    findings = []
    findings.extend(check_determinism(files))
    findings.extend(check_lock_order(files))
    findings.extend(check_lifetime(files))
    findings.extend(check_layering(files))
    findings.extend(dataflow.run(files))
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings
