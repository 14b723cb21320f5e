"""The lexical frontend of zerodb-analyzer's whole-program rules.

Lowers a C++ source file into the micro-IR (analysis/ir.py) without a real
compiler: comments/strings are blanked, then a single character scan tracks
brace scopes and paren depth, splitting the stream into statements. The
scan is deliberately conservative — it only materializes the constructs the
checks need (includes, calls, RAII lock acquisitions with their scope
extents, range-fors with body extents, view/reference-returning function
definitions with their body-locals, view/reference class members, Status
alias/return declarations) and leaves everything else untouched.

Known approximations (a lexical scan, not a compiler AST):
  - lock identity is the canonical acquisition-expression text (`mu_`,
    `exec.mu`), not the semantic member — same-named locks on different
    classes merge into one graph node (safe: merging can only create
    *extra* edges, never hide a cycle between distinctly-named locks)
  - function definitions are only recognized when the return type is a
    view/reference (all the lifetime check needs), so constructors and
    value-returning functions are not materialized
  - types are declaration text; typedef chains beyond one `using X = ...`
    hop are not followed
"""

import re

from . import ir

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+(?:"([^"]+)"|<([^>]+)>)')

# `MutexLock lock(&mu_);` / `zerodb::MutexLock l(&exec.mu);`
MUTEX_LOCK_RE = re.compile(
    r"\b(?:zerodb::)?MutexLock\s+\w+\s*\(\s*&\s*([\w.\->]+)\s*\)")
# explicit `mu_.Lock()` / `mu->Lock()` (and the releasing Unlock)
MANUAL_LOCK_RE = re.compile(r"([\w.\->]+?)(?:\.|->)(Lock|Unlock)\s*\(\s*\)")

# Function-definition header, matched only when the return type is a
# string_view or a reference — the lifetime check needs nothing else.
FUNC_RE = re.compile(
    r"^(?:template\s*<[^;{]*>\s*)?"
    r"((?:static\s+|inline\s+|constexpr\s+)*(?:const\s+)?"
    r"[\w:]+(?:<[\w:<>,\s*&]*>)?\s*(?:string_view|&+))\s+"
    r"((?:\w+(?:<[\w:<>,\s]*>)?::)*[\w~]+|operator\S+)\s*"
    r"\(([^;{]*)\)"
    r"((?:\s*(?:const|noexcept|override|final|ZDB_\w+\([^)]*\)))*)\s*$")

CLASS_RE = re.compile(
    r"^(?:template\s*<[^;{]*>\s*)?(?:class|struct)\s+"
    r"(?:ZDB_\w+(?:\([^)]*\))?\s+)?(?:\[\[\w+\]\]\s+)?(\w+)")

# View/reference data member: `std::string_view name_;`, `const Foo& ref;`
MEMBER_RE = re.compile(
    r"^(?:mutable\s+)?((?:const\s+)?[\w:]+(?:<[\w:<>,\s*]*>)?"
    r"\s*(?:&+|[\w:]*string_view))\s+(\w+)\s*(?:;|=|\{|$)")

# Plain declaration: `std::string name`, `std::unordered_map<K, V> m`,
# `const Foo* p` — one per statement prefix.
DECL_RE = re.compile(
    r"^(?:static\s+)?(?:const(?:expr)?\s+)?"
    r"((?:std::)?[A-Za-z_][\w:]*(?:<[\w:<>,\s*&]*>)?(?:\s*[*&]+)?)\s+"
    r"(\w+)\s*(?:[=;({\[]|$)")

RETURN_RE = re.compile(r"^return\b\s*(.*?);?\s*$")

CALL_RE = re.compile(
    r"([A-Za-z_][\w]*(?:(?:::|\.|->)[A-Za-z_~][\w]*)*)\s*\(")

LABEL_RE = re.compile(r"^(?:(?:public|private|protected)\s*:\s*"
                      r"|case\s+[^:]+?:(?!:)\s*|default\s*:\s*)+")

CONTROL_KEYWORDS = frozenset(
    ("if", "for", "while", "switch", "return", "else", "do", "case",
     "new", "delete", "sizeof", "catch", "throw", "co_return", "goto",
     "defined", "alignof", "decltype", "static_assert", "assert"))

DECL_TYPE_KEYWORDS = frozenset(
    ("return", "new", "delete", "else", "typedef", "using", "case", "throw",
     "public", "private", "protected", "template", "typename", "friend",
     "operator", "namespace", "enum", "class", "struct", "union", "goto",
     "break", "continue", "default", "extern", "do", "if", "while", "for"))


class _Scope:
    __slots__ = ("kind", "open_line", "name", "return_type", "locals",
                 "static_locals", "returns", "locks", "members")

    def __init__(self, kind, open_line, name="", return_type=""):
        self.kind = kind  # "function" | "class" | "rangefor" | "block"
        self.open_line = open_line
        self.name = name
        self.return_type = return_type
        self.locals = {}
        self.static_locals = set()
        self.returns = []
        self.locks = []  # LockAcquire still waiting for held_until
        self.members = []


def _base_identifier(expr):
    """`groups` -> `groups`, `state->items` -> `state`, `a.b` -> `a`."""
    m = re.match(r"\s*[&*]*\s*([A-Za-z_]\w*)", expr)
    return m.group(1) if m else ""


def _last_component(qualified):
    return re.split(r"::|\.|->", qualified)[-1]


def _range_for_container(text):
    """Returns the range expression of `for (decl : range)`, or None when
    `text` is not a range-for header (classic for, other statements)."""
    m = re.match(r"\s*for\s*\((.*)$", text)
    if m is None:
        return None
    rest = m.group(1)
    depth = 1
    end = len(rest)
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                end = i
                break
    header = rest[:end]
    if ";" in header:
        return None  # classic for
    m = re.search(r"(?<!:):(?!:)", header)
    if m is None:
        return None
    return header[m.end():].strip()


def parse_file(path, rel, raw_lines):
    """Returns the FileIR for one file from its already-read lines (the
    analyzer reads each file once, strictly, for both rule families)."""
    code = ir.strip_code(raw_lines)
    fir = ir.FileIR(path=path, rel=rel, module=ir.module_of(rel),
                    raw_lines=raw_lines)

    # Includes + preprocessor extents (directives and their backslash
    # continuations are invisible to the statement scan below).
    is_pp = [False] * len(code)
    continuing = False
    for idx, raw in enumerate(raw_lines):
        if continuing:
            is_pp[idx] = True
        elif raw.lstrip().startswith("#"):
            is_pp[idx] = True
            m = INCLUDE_RE.match(raw)
            if m:
                fir.includes.append(ir.Include(
                    header=m.group(1) or m.group(2), line=idx + 1,
                    system=m.group(1) is None))
        continuing = is_pp[idx] and raw.rstrip().endswith("\\")

    for idx, line in enumerate(code):
        if is_pp[idx]:
            continue
        for m in CALL_RE.finditer(line):
            qualified = m.group(1)
            name = _last_component(qualified)
            if name in CONTROL_KEYWORDS or qualified in CONTROL_KEYWORDS:
                continue
            fir.calls.append(ir.CallSite(
                name=name, qualified=qualified, line=idx + 1))

    # ---- statement/scope scan ----------------------------------------
    scopes = []  # stack of _Scope
    stmt = []  # [(line_no, fragment)]
    paren_depth = 0

    def innermost(kind):
        for scope in reversed(scopes):
            if scope.kind == kind:
                return scope
        return None

    def take_statement():
        # Leading fragments that are nothing but access/case labels (e.g.
        # `private:` on its own line) must not claim the statement's line.
        while stmt and not LABEL_RE.sub("", stmt[0][1].strip()).strip():
            stmt.pop(0)
        if not stmt:
            return "", 0
        first_line = stmt[0][0]
        text = LABEL_RE.sub("", " ".join(f for _, f in stmt).strip())
        stmt.clear()
        return text, first_line

    def record_locks(text, first_line):
        m = MUTEX_LOCK_RE.search(text)
        if m:
            acquire = ir.LockAcquire(lock_id=m.group(1), line=first_line,
                                     held_until=0)
            fir.locks.append(acquire)
            if scopes:
                scopes[-1].locks.append(acquire)
            return
        for m in MANUAL_LOCK_RE.finditer(text):
            lock_id, op = m.group(1), m.group(2)
            if op == "Lock":
                acquire = ir.LockAcquire(lock_id=lock_id, line=first_line,
                                         held_until=0)
                fir.locks.append(acquire)
                if scopes:
                    scopes[-1].locks.append(acquire)
            else:  # Unlock closes the latest open acquisition of this id
                for acquire in reversed(fir.locks):
                    if acquire.lock_id == lock_id and acquire.held_until == 0:
                        acquire.held_until = first_line
                        for scope in scopes:
                            if acquire in scope.locks:
                                scope.locks.remove(acquire)
                        break

    def finalize_statement(end_line):
        text, first_line = take_statement()
        if not text:
            return
        record_locks(text, first_line)

        func = innermost("function")
        m = RETURN_RE.match(text)
        if m is not None:
            if func is not None:
                func.returns.append(ir.ReturnStmt(
                    expr=m.group(1).strip(), line=first_line))
            return

        container = _range_for_container(text)
        if container is not None:
            # Braceless range-for: the body is the statement's own extent.
            fir.range_fors.append(ir.RangeFor(
                container=container,
                container_type=fir.decl_types.get(
                    _base_identifier(container), ""),
                line=first_line, body_begin=first_line, body_end=end_line))
            return

        m = DECL_RE.match(text)
        if m and _last_component(m.group(1)) not in DECL_TYPE_KEYWORDS \
                and m.group(2) not in DECL_TYPE_KEYWORDS:
            type_text, name = m.group(1).strip(), m.group(2)
            fir.decl_types.setdefault(name, type_text)
            if func is not None:
                if text.startswith("static"):
                    func.static_locals.add(name)
                else:
                    func.locals.setdefault(name, type_text)

        cls = scopes[-1] if scopes and scopes[-1].kind == "class" else None
        if cls is not None and "(" not in text:
            m = MEMBER_RE.match(text)
            if m and not text.startswith("static"):
                cls.members.append(ir.Member(type_text=m.group(1).strip(),
                                             name=m.group(2),
                                             line=first_line))

    def open_scope(open_line):
        text, first_line = take_statement()
        header_line = first_line or open_line
        record_locks(text, header_line)

        container = _range_for_container(text)
        if container is not None:
            scope = _Scope("rangefor", header_line, name=container)
            scopes.append(scope)
            return
        m = FUNC_RE.match(text)
        if m:
            scopes.append(_Scope("function", header_line, name=m.group(2),
                                 return_type=m.group(1).strip()))
            return
        m = CLASS_RE.match(text)
        if m and not re.match(r"^enum\b", text):
            scopes.append(_Scope("class", header_line, name=m.group(1)))
            return
        scopes.append(_Scope("block", header_line))

    def close_scope(close_line):
        if not scopes:
            return
        scope = scopes.pop()
        for acquire in scope.locks:
            if acquire.held_until == 0:
                acquire.held_until = close_line
        if scope.kind == "rangefor":
            fir.range_fors.append(ir.RangeFor(
                container=scope.name,
                container_type=fir.decl_types.get(
                    _base_identifier(scope.name), ""),
                line=scope.open_line, body_begin=scope.open_line,
                body_end=close_line))
        elif scope.kind == "function":
            func = ir.Function(
                name=_last_component(scope.name), qualified=scope.name,
                return_type=scope.return_type, line=scope.open_line,
                end_line=close_line)
            func.returns = scope.returns
            func.locals = {n: t for n, t in scope.locals.items()
                           if n not in scope.static_locals}
            fir.functions.append(func)
        elif scope.kind == "class":
            if scope.members:
                fir.classes.append(ir.ClassDecl(
                    name=scope.name, line=scope.open_line,
                    members=scope.members))

    for idx, line in enumerate(code):
        if is_pp[idx]:
            continue
        line_no = idx + 1
        buffered = []

        def flush_fragment():
            fragment = "".join(buffered)
            buffered.clear()
            if fragment.strip():
                stmt.append((line_no, fragment))

        for ch in line:
            if ch == "(":
                paren_depth += 1
                buffered.append(ch)
            elif ch == ")":
                paren_depth = max(0, paren_depth - 1)
                buffered.append(ch)
            elif ch == "{" and paren_depth == 0:
                flush_fragment()
                open_scope(line_no)
            elif ch == "}" and paren_depth == 0:
                flush_fragment()
                finalize_statement(line_no)
                close_scope(line_no)
            elif ch == ";" and paren_depth == 0:
                buffered.append(ch)
                flush_fragment()
                finalize_statement(line_no)
            else:
                buffered.append(ch)
        flush_fragment()

    # EOF: release anything still open (truncated fixtures, macro noise).
    last_line = len(raw_lines)
    while scopes:
        finalize_statement(last_line)
        close_scope(last_line)
    for acquire in fir.locks:
        if acquire.held_until == 0:
            acquire.held_until = last_line
    return fir
