"""Interprocedural dataflow passes for zerodb-analyzer.

Three rules built on the cross-TU call graph (callgraph.py):

  unit-mix        dimensional correctness for the cost pipeline. The tag
                  lattice is {unknown, ms, log-ms, rows, bytes,
                  selectivity}; tags seed from the strong types in
                  src/common/units.h (Millis, LogMillis, Rows, Bytes,
                  Selectivity) and propagate through assignments, call
                  arguments and return values via a return-tag fixpoint.
                  A tagged value may not flow into a differently-tagged
                  parameter, constructor, or +/- mix without one of the
                  named conversions (ToLog, FromLog, FromRows).

  statusor-deref  `StatusOr<T>::value()` / unary `*` on a value whose
                  `ok()` was never established before that point — with
                  StatusOr-ness inferred interprocedurally for
                  `auto x = f(...)` — and Status/StatusOr locals that a
                  function receives from a callee and then never checks,
                  returns, or forwards.

  hot-alloc       heap allocation (new / make_unique / make_shared) or
                  container growth (push_back, emplace_back, insert,
                  resize without a prior reserve on the same receiver)
                  reachable from the executor's per-row `Exec*`/`Next`
                  loops or the trainer's per-shard inner loop. "Hot"
                  propagates along call edges: a call made inside a hot
                  function's loop makes the callee loop-hot (its whole
                  body runs per row), and loop-hot is transitive.

All three passes read only `FileIR.raw_lines` (via callgraph.lower_file).
"""

import re

from . import callgraph
from .ir import Finding

RULES = ("unit-mix", "statusor-deref", "hot-alloc")

# --- tag lattice -------------------------------------------------------

UNIT_TAGS = {
    "Millis": "ms",
    "LogMillis": "log-ms",
    "Rows": "rows",
    "Bytes": "bytes",
    "Selectivity": "selectivity",
}

# Named conversions: calling these is the sanctioned way to move between
# dimensions, so their results carry the *target* tag and their arguments
# are exempt from mixing checks.
_CONVERSIONS = {
    "ToLog": "log-ms",
    "FromLog": "ms",
    "FromRows": "selectivity",
}

_TYPE_CLEAN_RE = re.compile(
    r"\b(?:const|constexpr|static|inline|friend|virtual|volatile)\b")

_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")

_FIXPOINT_LIMIT = 10


def type_tag(type_text):
    """Declared type -> tag, or None. Only *scalar* unit types count —
    `std::vector<Millis>` is a container, and element flow through
    containers is out of scope for this pass."""
    if not type_text:
        return None
    text = _TYPE_CLEAN_RE.sub("", type_text)
    text = text.replace("&", " ").replace("*", " ").strip()
    text = text.split("::")[-1].strip()
    return UNIT_TAGS.get(text)


class _FuncEnv:
    """Per-function variable tag environment, seeded from declarations."""

    def __init__(self, func):
        self.func = func
        self.tags = {}
        for p in func.params:
            tag = type_tag(p.type_text)
            if tag and p.name:
                self.tags[p.name] = tag
        self.return_tag_decl = type_tag(func.return_type)


def _closes_at_end(text, open_idx):
    """True when the paren at `open_idx` closes exactly at text's end."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i == len(text) - 1
    return False


def _strip_outer_parens(text):
    text = text.strip()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and i != len(text) - 1:
                    return text
        text = text[1:-1].strip()
    return text


def _split_top(text, ops=("+", "-")):
    """Splits `text` on top-level binary + or - (not unary, not inside
    any bracket). Returns list of operand texts (len 1 when no split)."""
    parts, depth, start = [], 0, 0
    prev_nonspace = ""
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch in ops and depth == 0:
            # Unary context: operator follows nothing, another operator,
            # an open bracket, or a comma/return keyword.
            if prev_nonspace and (prev_nonspace.isalnum()
                                  or prev_nonspace in ")]_"):
                # `->` and `e-9` are not subtraction.
                if ch == "-" and i + 1 < len(text) and text[i + 1] == ">":
                    i += 2
                    continue
                if prev_nonspace.lower() == "e" and i >= 2 \
                        and text[i - 2:i - 1].isdigit():
                    i += 1
                    continue
                parts.append(text[start:i].strip())
                start = i + 1
        if not ch.isspace():
            prev_nonspace = ch
        i += 1
    parts.append(text[start:].strip())
    return [p for p in parts if p]


class UnitPass:
    def __init__(self, files, graph):
        self.files = files
        self.graph = graph
        self.envs = {id(f): _FuncEnv(f) for f in graph.functions}
        # name -> tag agreed by every same-named function, else None.
        self.return_tags = {}
        self.findings = []

    # -- expression tag inference --------------------------------------

    def expr_tag(self, env, expr, depth=0):
        """Best-effort tag of an expression ('' receiver chains, calls,
        casts). Returns a tag string or None (unknown)."""
        if depth > 6 or not expr:
            return None
        expr = _strip_outer_parens(expr)
        # static_cast<T>(e) is transparent.
        m = re.match(r"^static_cast\s*<[^>]*>\s*\((.*)\)$", expr)
        if m:
            return self.expr_tag(env, m.group(1), depth + 1)
        # Named conversions produce their target dimension — whether
        # called on a variable (`ms.ToLog()`), a temporary
        # (`Millis(x).ToLog()`), or statically (`Millis::FromLog(e)`).
        m = re.search(r"(?:\.|->|::)(ToLog|FromLog|FromRows)\s*"
                      r"\((?:[^()]|\([^()]*\))*\)$", expr)
        if m:
            return _CONVERSIONS[m.group(1)]
        # Unit constructor: Millis(e) — tags as that unit (rule (b)
        # checks the operand elsewhere). The opening paren must close at
        # the end of the expression, or this is a longer chain.
        m = re.match(r"^(?:zerodb\s*::\s*)?(\w+)\s*\(", expr)
        if m and m.group(1) in UNIT_TAGS \
                and _closes_at_end(expr, m.end() - 1):
            return UNIT_TAGS[m.group(1)]
        # x.value() unwraps the representation but keeps the dimension:
        # `ms.value() - rows.value()` is still a unit mix.
        m = re.match(r"^(.*?)(?:\.|->)value\s*\(\s*\)$", expr)
        if m:
            return self.expr_tag(env, m.group(1), depth + 1)
        # Plain variable (possibly dereferenced StatusOr / iterator).
        base = expr.lstrip("*&").strip()
        if _IDENT_RE.match(base):
            return env.tags.get(base)
        # Member access `a.b` / indexing `v[i]`: use the terminal symbol
        # only when the whole chain is a declared local; otherwise
        # unknown.
        m = re.match(r"^([A-Za-z_]\w*)\s*\[[^\]]*\]$", expr)
        if m:
            return env.tags.get(m.group(1))
        # Free/member call: interprocedural return-tag summary, but only
        # when every same-named candidate agrees.
        m = re.match(r"^(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(",
                     expr)
        if m and expr.endswith(")"):
            return self.return_tags.get(m.group(1))
        return None

    # -- fixpoint over return tags -------------------------------------

    def _infer_return_tag(self, env):
        if env.return_tag_decl:
            return env.return_tag_decl
        tags = set()
        for stmt in env.func.stmts:
            m = re.match(r"^return\b(.*)$", stmt.text)
            if not m:
                continue
            expr = m.group(1).strip()
            if not expr:
                return None
            tags.add(self.expr_tag(env, expr))
        if len(tags) == 1:
            return tags.pop()
        return None

    def _seed_locals(self, env):
        """One forward sweep: local declarations and `auto x = expr`
        assignments extend the environment."""
        decl_re = re.compile(
            r"^(?:const\s+)?(?P<type>[\w:<>,\s]+?[&\s])\s*"
            r"(?P<name>[A-Za-z_]\w*)\s*(?:=\s*(?P<init>.*)|\((?P<ctor>.*)\)"
            r"|\{(?P<brace>.*)\})?$")
        for stmt in env.func.stmts:
            m = decl_re.match(stmt.text)
            if not m:
                continue
            name = m.group("name")
            type_text = m.group("type").strip()
            tag = type_tag(type_text)
            if tag:
                env.tags.setdefault(name, tag)
                continue
            if type_text in ("auto", "const auto", "auto&", "const auto&"):
                init = m.group("init") or m.group("ctor") \
                    or m.group("brace")
                if init:
                    inferred = self.expr_tag(env, init.strip())
                    if inferred:
                        env.tags.setdefault(name, inferred)

    def run_fixpoint(self):
        for _ in range(_FIXPOINT_LIMIT):
            changed = False
            for func in self.graph.functions:
                env = self.envs[id(func)]
                before = dict(env.tags)
                self._seed_locals(env)
                if env.tags != before:
                    changed = True
            new_returns = {}
            for name, candidates in self.graph.by_name.items():
                tags = {self._infer_return_tag(self.envs[id(f)])
                        for f in candidates}
                new_returns[name] = tags.pop() if len(tags) == 1 else None
            if new_returns != self.return_tags:
                self.return_tags = new_returns
                changed = True
            if not changed:
                break

    # -- conviction rules ----------------------------------------------

    def _flag(self, func, line, message):
        fir = self.files.get(func.rel)
        if fir is not None and fir.suppressed(line, "unit-mix"):
            return
        self.findings.append(Finding(func.rel, line, "unit-mix", message))

    def check(self):
        self.run_fixpoint()
        for func in self.graph.functions:
            env = self.envs[id(func)]
            self._check_calls(func, env)
            self._check_arith(func, env)
            self._check_returns(func, env)
        return self.findings

    def _check_calls(self, func, env):
        for call in func.calls:
            # Rule (b): re-tagging through a unit constructor,
            # e.g. Millis(rows) — dimensions only change via ToLog /
            # FromLog / FromRows.
            if call.name in UNIT_TAGS and len(call.args) == 1:
                want = UNIT_TAGS[call.name]
                got = self.expr_tag(env, call.args[0])
                if got and got != want:
                    self._flag(
                        func, call.line,
                        f"`{call.name}({call.args[0]})` re-tags a "
                        f"{got}-typed value as {want} without a named "
                        "conversion (ToLog/FromLog/FromRows, "
                        "common/units.h)")
                continue
            if call.name in _CONVERSIONS:
                continue
            # Rule (a): tagged argument into a differently-declared unit
            # parameter. Same-named overloads are merged by the call
            # graph, so convict only when every candidate conflicts.
            candidates = self.graph.resolve(call.name)
            if not candidates:
                continue
            for arg_idx, arg in enumerate(call.args):
                got = self.expr_tag(env, arg)
                if not got:
                    continue
                wants = set()
                for cand in candidates:
                    if arg_idx >= len(cand.params):
                        wants.add(None)
                        continue
                    wants.add(type_tag(cand.params[arg_idx].type_text))
                if None in wants or got in wants or not wants:
                    continue
                want = sorted(w for w in wants if w)[0]
                self._flag(
                    func, call.line,
                    f"{got}-tagged argument `{arg}` flows into "
                    f"parameter {arg_idx + 1} of `{call.name}` declared "
                    f"as {want}; convert explicitly (common/units.h) or "
                    "fix the call")

    def _check_arith(self, func, env):
        for stmt in func.stmts:
            text = stmt.text
            # Only the right-hand side of an assignment / the bare
            # expression; skip declarations' type part.
            if "=" in text:
                text = text.split("=", 1)[1]
            if text.startswith("return"):
                text = text[len("return"):]
            operands = _split_top(text)
            if len(operands) < 2:
                continue
            tags = []
            for op in operands:
                tags.append(self.expr_tag(env, op))
            known = [(op, t) for op, t in zip(operands, tags) if t]
            for i in range(len(known) - 1):
                if known[i][1] != known[i + 1][1]:
                    a, b = known[i], known[i + 1]
                    self._flag(
                        func, stmt.line,
                        f"adding/subtracting {a[1]} (`{a[0]}`) and "
                        f"{b[1]} (`{b[0]}`) mixes dimensions; convert "
                        "through the named conversions in common/units.h "
                        "first")
                    break

    def _check_returns(self, func, env):
        # Rule (d): declared unit return type vs differently-tagged
        # return expression.
        want = env.return_tag_decl
        if not want:
            return
        for stmt in func.stmts:
            m = re.match(r"^return\b(.*)$", stmt.text)
            if not m:
                continue
            got = self.expr_tag(env, m.group(1).strip())
            if got and got != want:
                self._flag(
                    func, stmt.line,
                    f"`{func.qualified}` declares a {want} return but "
                    f"this path returns a {got}-tagged value")


def check_units(files, graph):
    return UnitPass(files, graph).check()


# --- statusor-deref ----------------------------------------------------

_STATUSOR_DECL_RE = re.compile(r"\bStatusOr\s*<")
_STATUS_DECL_RE = re.compile(r"^(?:const\s+)?(?:\w+::)*Status\s*[&]?\s+$")

_CHECK_MACROS = ("ZDB_CHECK_OK", "ZDB_DCHECK_OK", "ZDB_RETURN_NOT_OK",
                 "ZDB_ASSERT_OK", "ASSERT_OK", "EXPECT_OK")


def _returns_statusor(func):
    return bool(_STATUSOR_DECL_RE.search(func.return_type))


def _returns_status(func):
    return bool(re.match(r"^(?:\w+::)*Status\s*$",
                         func.return_type.strip()))


def check_statusor(files, graph):
    findings = []
    statusor_fns, status_fns = set(), set()
    for name, candidates in graph.by_name.items():
        if candidates and all(_returns_statusor(f) for f in candidates):
            statusor_fns.add(name)
        if candidates and all(_returns_status(f) for f in candidates):
            status_fns.add(name)

    for func in graph.functions:
        fir = files.get(func.rel)

        # Discover StatusOr/Status locals: explicit declarations, or
        # `auto x = f(...)` where the call graph knows f's return type
        # (the interprocedural part).
        so_vars, st_vars = {}, {}  # name -> decl line
        decl_from_call = {}        # name -> callee
        for stmt in func.stmts:
            m = re.match(
                r"^(?:const\s+)?(?P<type>[\w:<>,\s]+?)\s+"
                r"(?P<name>[A-Za-z_]\w*)\s*=\s*(?P<init>.*)$", stmt.text)
            if m:
                type_text, name, init = (m.group("type"), m.group("name"),
                                         m.group("init"))
                callee = re.match(
                    r"^(?:[A-Za-z_]\w*(?:\.|->|::))*([A-Za-z_]\w*)\s*\(",
                    init)
                if _STATUSOR_DECL_RE.search(type_text):
                    so_vars[name] = stmt.line
                elif re.match(r"^(?:\w+::)*Status$", type_text.strip()):
                    st_vars[name] = stmt.line
                elif type_text.strip() in ("auto", "const auto", "auto&&",
                                           "const auto&") and callee:
                    if callee.group(1) in statusor_fns:
                        so_vars[name] = stmt.line
                        decl_from_call[name] = callee.group(1)
                    elif callee.group(1) in status_fns:
                        st_vars[name] = stmt.line
                        decl_from_call[name] = callee.group(1)
                if callee and name in so_vars:
                    decl_from_call.setdefault(name, callee.group(1))

        if not so_vars and not st_vars:
            continue

        checked = {}    # name -> first line where ok-ness is established
        used = set()    # names mentioned after their declaration
        deref_sites = []  # (name, line)
        for stmt in func.stmts:
            text = stmt.text
            for name in list(so_vars) + list(st_vars):
                if not re.search(r"\b" + re.escape(name) + r"\b", text):
                    continue
                decl_line = so_vars.get(name, st_vars.get(name))
                if stmt.line == decl_line and re.match(
                        r"^(?:const\s+)?[\w:<>,\s]+?\s+"
                        + re.escape(name) + r"\s*=", text):
                    continue  # the declaration itself
                used.add(name)
                esc = re.escape(name)
                establishes = (
                    re.search(r"\b" + esc + r"\s*(?:\.|->)\s*ok\s*\(", text)
                    or any(re.search(r"\b" + macro + r"\s*\(\s*" + esc
                                     + r"\b", text)
                           for macro in _CHECK_MACROS)
                    or re.search(r"\breturn\s+" + esc
                                 + r"\b(?!\s*(?:\.|->|\[))", text)
                    or re.search(r"\breturn\s+std::move\s*\(\s*" + esc,
                                 text))
                if establishes:
                    checked.setdefault(name, stmt.line)
                if name in so_vars:
                    deref = (
                        re.search(r"\b" + esc + r"\s*(?:\.|->)\s*value\s*\(",
                                  text)
                        or re.match(r"^\*\s*" + esc + r"\b", text)
                        or re.search(r"[(,=]\s*\*\s*" + esc + r"\b", text))
                    if deref:
                        deref_sites.append((name, stmt.line))

        for name, line in deref_sites:
            if name in checked and checked[name] <= line:
                continue
            if fir is not None and fir.suppressed(line, "statusor-deref"):
                continue
            origin = decl_from_call.get(name)
            via = f" (returned by `{origin}`)" if origin else ""
            findings.append(Finding(
                func.rel, line, "statusor-deref",
                f"`{name}`{via} is dereferenced before `{name}.ok()` is "
                "established on this path; a failed Status here aborts — "
                "check ok() or use ZDB_ASSIGN_OR_RETURN"))

        # Status/StatusOr received from a callee and then never looked at
        # again: the error crosses this function's boundary unchecked.
        for name, decl_line in list(so_vars.items()) + list(st_vars.items()):
            if name in used or name not in decl_from_call:
                continue
            if fir is not None and \
                    fir.suppressed(decl_line, "statusor-deref"):
                continue
            findings.append(Finding(
                func.rel, decl_line, "statusor-deref",
                f"`{name}` holds the Status of `{decl_from_call[name]}` "
                "but is never checked, returned or forwarded — the error "
                "silently dies in this frame"))
    return findings


# --- hot-alloc ---------------------------------------------------------

_ALLOC_RE = re.compile(
    r"(?:^|[\s(,=])new\s+[A-Za-z_]|\bmake_unique\s*<|\bmake_shared\s*<")
_GROWTH_METHODS = ("push_back", "emplace_back", "insert", "resize")

def _hot_roots(graph):
    """Per-row entry points: the executor's Exec*/Next functions and the
    trainer's per-shard loop body."""
    roots = []
    for func in graph.functions:
        if func.module == "exec" and (func.name.startswith("Exec")
                                      or func.name == "Next"):
            roots.append(func)
        elif func.module == "train" and func.name == "RunShard":
            roots.append(func)
    return roots


def _propagate_hotness(graph):
    """Returns {func_name: 'plain' | 'loop'}. Roots start 'plain' (only
    their in-loop statements are per-row); a callee invoked from a hot
    function's loop is 'loop' (its entire body is per-row), and 'loop'
    propagates to every callee."""
    hotness = {}
    worklist = []
    for root in _hot_roots(graph):
        if hotness.get(root.name) != "plain":
            hotness.setdefault(root.name, "plain")
            worklist.append(root.name)
    while worklist:
        name = worklist.pop()
        level = hotness[name]
        for func in graph.by_name.get(name, []):
            for call in func.calls:
                if call.name not in graph.by_name:
                    continue
                callee_level = "loop" if (level == "loop" or call.in_loop) \
                    else None
                if callee_level is None:
                    continue
                if hotness.get(call.name) != "loop":
                    hotness[call.name] = "loop"
                    worklist.append(call.name)
    return hotness


def _recv_base(recv):
    """Receiver chain with index expressions erased, so `cols[g]` and
    `cols[c]` (a reserve in a sibling loop) compare equal."""
    return re.sub(r"\[[^\]]*\]", "[]", recv).replace(" ", "")


def check_hot_alloc(files, graph):
    findings = []
    hotness = _propagate_hotness(graph)
    flagged = set()
    for func in graph.functions:
        level = hotness.get(func.name)
        if level is None:
            continue
        fir = files.get(func.rel)
        reserved = {_recv_base(c.recv) for c in func.calls
                    if c.name == "reserve" and c.recv}
        root_note = ("reachable from a per-row executor/trainer loop"
                     if level == "loop"
                     else "inside this per-row loop")
        for stmt in func.stmts:
            if level == "plain" and not stmt.in_loop:
                continue
            site = None
            if _ALLOC_RE.search(stmt.text):
                site = "heap allocation"
            else:
                for call in calls_for_stmt(func, stmt):
                    if call.name in _GROWTH_METHODS and call.recv:
                        if _recv_base(call.recv) in reserved:
                            continue  # capacity established up front
                        site = (f"`{call.recv}.{call.name}()` growth "
                                "without a prior reserve")
                        break
            if site is None:
                continue
            key = (func.rel, stmt.line)
            if key in flagged:
                continue
            if fir is not None and fir.suppressed(stmt.line, "hot-alloc"):
                continue
            flagged.add(key)
            findings.append(Finding(
                func.rel, stmt.line, "hot-alloc",
                f"{site} in `{func.qualified}`, {root_note}; allocation "
                "per row dominates tight scan/join/training loops — hoist "
                "the buffer or reserve() outside the loop"))
    return findings


def calls_for_stmt(func, stmt):
    return [c for c in func.calls if c.line == stmt.line]


# --- entry point -------------------------------------------------------

def run(files):
    """All three interprocedural passes; returns sorted findings."""
    graph = callgraph.build(files)
    findings = []
    findings.extend(check_units(files, graph))
    findings.extend(check_statusor(files, graph))
    findings.extend(check_hot_alloc(files, graph))
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))
    return findings
