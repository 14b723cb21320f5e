"""Cross-TU call graph for zerodb-analyzer's interprocedural passes.

The micro-IR (ir.FileIR) materializes `Function` objects only for the
lifetime check (textparse only lowers view/reference-returning ones). The
interprocedural passes need *every* function with its parameters,
statements and loop structure.

So this module does its own lowering, from `FileIR.raw_lines`: a single
brace/paren scan recovers function definitions, their parameter lists,
per-statement text with 1-based lines, and whether each statement sits
inside a loop.

Call resolution is name-based and conservative: a call site resolves to
every known function with that unqualified name (same-named overloads are
merged into one candidate list). Checks that would misfire on merged
overloads must require agreement across all candidates.
"""

import re
from dataclasses import dataclass, field

from .ir import module_of, strip_code

# Keywords that look like calls to a naive scanner.
_NOT_CALLS = frozenset((
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "catch", "do", "else", "new", "delete", "throw", "case", "default",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
    "static_assert", "decltype", "defined", "assert", "alignas",
    "noexcept", "typeid", "co_await", "co_return", "co_yield"))

_CONTROL = frozenset(("if", "for", "while", "switch", "catch", "do",
                      "else", "try"))
_LOOP_KEYWORDS = frozenset(("for", "while", "do"))
_TYPE_KEYWORDS = frozenset(("class", "struct", "union", "enum"))

# `recv.name(` / `recv->name(` / `ns::name(` / `name(` — recv is a simple
# chained expression (identifiers, (), [], . and ->).
CALL_RE = re.compile(
    r"(?P<recv>[A-Za-z_]\w*(?:\(\)|\[\w*\])?(?:(?:\.|->)"
    r"[A-Za-z_]\w*(?:\(\)|\[\w*\])?)*)?"
    r"(?P<sep>\.|->|::)?"
    r"(?<![\w])(?P<name>[A-Za-z_]\w*)\s*\(")

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


@dataclass
class Stmt:
    """One statement (or loop/branch header) inside a function body."""

    line: int       # 1-based line of the statement's first character
    text: str       # comment/string-stripped, whitespace-collapsed
    in_loop: bool   # lexically inside any for/while/do body


@dataclass
class Call:
    """One call expression found inside a function."""

    name: str        # unqualified callee
    recv: str        # receiver text for `recv.name(...)` ('' for free calls)
    args: "list[str]"
    line: int
    in_loop: bool


@dataclass
class Param:
    type_text: str
    name: str


@dataclass
class FuncInfo:
    name: str          # unqualified
    qualified: str     # as written, e.g. TreeModel::PredictMs
    rel: str
    module: str
    line: int
    end_line: int
    return_type: str   # '' for constructors/destructors
    params: "list[Param]" = field(default_factory=list)
    stmts: "list[Stmt]" = field(default_factory=list)
    calls: "list[Call]" = field(default_factory=list)

    def body_text(self):
        return "\n".join(s.text for s in self.stmts)


def split_top_commas(text):
    """Splits on commas at angle/paren/bracket/brace depth zero."""
    parts, depth, start = [], 0, 0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "<":
            # Heuristic: treat as angle bracket when it looks like a
            # template argument list (previous non-space is an identifier
            # character), not a less-than.
            j = i - 1
            while j >= 0 and text[j] == " ":
                j -= 1
            if j >= 0 and (text[j].isalnum() or text[j] == "_"):
                depth += 1
        elif ch == ">" and depth > 0 and (i == 0 or text[i - 1] != "-"):
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
        i += 1
    tail = text[start:].strip()
    if tail or parts:
        parts.append(tail)
    return parts


def parse_params(params_text):
    """Parameter list text -> [Param]; best-effort name/type split."""
    params = []
    text = params_text.strip()
    if not text or text == "void":
        return params
    for piece in split_top_commas(text):
        piece = piece.split("=", 1)[0].strip()  # drop default argument
        if not piece or piece == "...":
            continue
        m = re.match(r"^(?P<type>.+?)\s*[&*]*\s*(?P<name>[A-Za-z_]\w*)"
                     r"\s*(?:\[\s*\w*\s*\])?$", piece)
        if m and m.group("type").rstrip() not in ("const", ""):
            type_text = piece[:m.start("name")].strip()
            params.append(Param(type_text, m.group("name")))
        else:
            params.append(Param(piece, ""))
    return params


def _match_function_header(text):
    """Returns (qualified_name, params_text, return_type) when `text` (the
    statement buffer preceding a `{`) is a function definition header,
    else None."""
    text = text.strip()
    if not text or "(" not in text:
        return None
    # Initializer lists / assignments / control flow are not headers.
    first_word = _IDENT_RE.match(text)
    if first_word and first_word.group(0) in _CONTROL | _TYPE_KEYWORDS \
            | {"namespace", "return", "using", "extern", "case"}:
        return None
    open_idx = text.find("(")
    pre = text[:open_idx].rstrip()
    if not pre:
        return None
    # `operator` names carry symbols; otherwise the name is the trailing
    # (possibly ::-qualified) identifier chain.
    m = re.search(r"(?:operator\s*(?:\(\)|\[\]|[^\s(]+))\s*$", pre)
    if m:
        qualified = m.group(0).replace(" ", "")
        head = pre[:m.start()].rstrip()
    else:
        m = re.search(r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*$", pre)
        if not m or not m.group(1):
            return None
        qualified = re.sub(r"\s*", "", m.group(1)) if "::" in m.group(1) \
            else m.group(1)
        head = pre[:m.start()].rstrip()
        last = qualified.split("::")[-1]
        if last in _NOT_CALLS or last in _CONTROL:
            return None
    # A `=` before the name means this is an initializer (`auto f = [..`).
    if "=" in head and "operator" not in head:
        return None
    if head.endswith(("return", ",", "&&", "||", "!", "(")):
        return None
    # Balanced parameter list starting at open_idx.
    depth, i = 0, open_idx
    close_idx = -1
    while i < len(text):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                close_idx = i
                break
        i += 1
    if close_idx < 0:
        return None
    params_text = text[open_idx + 1:close_idx]
    trail = text[close_idx + 1:].strip()
    # Trail may hold cv/ref/noexcept/override, a trailing return type, or a
    # constructor initializer list. Anything else (arithmetic, `=`, ...)
    # means this was an ordinary expression.
    if trail and not re.match(
            r"^(?:const|noexcept(?:\([^)]*\))?|override|final|&&?|"
            r"->\s*[\w:<>,&*\s\[\]]+|:\s*.*|\s)*$", trail):
        return None
    # Macro invocations at namespace scope (e.g. TEST_F) still match; they
    # behave like functions for our purposes.
    return_type = re.sub(r"\s+", " ", head).strip()
    for kw in ("static", "inline", "constexpr", "virtual", "explicit",
               "friend", "extern"):
        return_type = re.sub(r"\b" + kw + r"\b", "", return_type).strip()
    return qualified, params_text, return_type


def calls_in(text, line, in_loop):
    """All call expressions in one statement's text."""
    out = []
    for m in CALL_RE.finditer(text):
        name = m.group("name")
        if name in _NOT_CALLS:
            continue
        recv = ""
        if m.group("sep") in (".", "->") and m.group("recv"):
            recv = m.group("recv")
        # Extract balanced argument text.
        depth, i = 0, m.end() - 1
        close = -1
        while i < len(text):
            if text[i] == "(":
                depth += 1
            elif text[i] == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
            i += 1
        args_text = text[m.end():close] if close > 0 else ""
        args = split_top_commas(args_text) if args_text.strip() else []
        out.append(Call(name, recv, args, line, in_loop))
    return out


class _Scope:
    __slots__ = ("kind", "func")

    def __init__(self, kind, func=None):
        self.kind = kind  # "func" | "loop" | "block" | "type" | "ns"
        self.func = func


def lower_file(fir):
    """FileIR -> [FuncInfo] via a brace/paren scan over raw_lines."""
    lines = strip_code(fir.raw_lines)
    funcs = []
    scopes = []
    buf = []
    buf_line = 0
    paren = 0
    brace_in_paren = 0

    def current_func():
        for scope in reversed(scopes):
            if scope.kind == "func":
                return scope.func
        return None

    def in_loop():
        for scope in reversed(scopes):
            if scope.kind == "loop":
                return True
            if scope.kind == "func":
                return False
        return False

    def emit(text, line):
        func = current_func()
        if func is None:
            return
        text = re.sub(r"\s+", " ", text).strip()
        if not text:
            return
        stmt = Stmt(line, text, in_loop())
        func.stmts.append(stmt)
        func.calls.extend(calls_in(text, line, stmt.in_loop))

    for lineno, line in enumerate(lines, 1):
        for ch in line:
            if not buf:
                if ch.isspace():
                    continue  # don't let indentation pin buf_line early
                buf_line = lineno
            if ch == "(":
                paren += 1
                buf.append(ch)
            elif ch == ")":
                paren = max(0, paren - 1)
                buf.append(ch)
            elif ch == "{":
                if paren > 0:
                    brace_in_paren += 1
                    buf.append(ch)
                    continue
                if brace_in_paren > 0:
                    # Brace-init or lambda body nested in an expression.
                    brace_in_paren += 1
                    buf.append(ch)
                    continue
                text = "".join(buf).strip()
                buf = []
                header = _match_function_header(text)
                first = _IDENT_RE.match(text)
                first_word = first.group(0) if first else ""
                if first_word == "namespace":
                    scopes.append(_Scope("ns"))
                elif first_word in _TYPE_KEYWORDS and "=" not in text:
                    scopes.append(_Scope("type"))
                elif first_word in _CONTROL:
                    emit(text, buf_line)  # loop/branch header text
                    kind = "loop" if first_word in _LOOP_KEYWORDS \
                        else "block"
                    scopes.append(_Scope(kind, None))
                elif header and (current_func() is None):
                    qualified, params_text, return_type = header
                    name = qualified.split("::")[-1]
                    func = FuncInfo(
                        name=name, qualified=qualified, rel=fir.rel,
                        module=fir.module or fir.fixture_module() or "",
                        line=buf_line, end_line=buf_line,
                        return_type=return_type,
                        params=parse_params(params_text))
                    funcs.append(func)
                    scopes.append(_Scope("func", func))
                elif text.endswith("="):
                    scopes.append(_Scope("block"))  # brace initializer
                else:
                    if text:
                        emit(text, buf_line)
                    scopes.append(_Scope("block"))
            elif ch == "}":
                if brace_in_paren > 0:
                    brace_in_paren -= 1
                    buf.append(ch)
                    continue
                tail = "".join(buf).strip()
                if tail:
                    emit(tail, buf_line)
                buf = []
                if scopes:
                    closed = scopes.pop()
                    if closed.kind == "func" and closed.func is not None:
                        closed.func.end_line = lineno
            elif ch == ";":
                if paren > 0 or brace_in_paren > 0:
                    buf.append(ch)
                    continue
                emit("".join(buf), buf_line)
                buf = []
            else:
                buf.append(ch)
        if buf and buf[-1] != " ":
            buf.append(" ")  # line break = token boundary
    return funcs


@dataclass
class CallGraph:
    """Name-indexed functions plus caller -> callee-name edges."""

    functions: "list[FuncInfo]" = field(default_factory=list)
    by_name: "dict[str, list[FuncInfo]]" = field(default_factory=dict)

    def resolve(self, name):
        return self.by_name.get(name, [])

    def callees_of(self, func):
        names = set()
        for call in func.calls:
            if call.name in self.by_name:
                names.add(call.name)
        return names


def build(files):
    """{rel: FileIR} -> CallGraph over every function in every file."""
    graph = CallGraph()
    for rel in sorted(files):
        for func in lower_file(files[rel]):
            graph.functions.append(func)
            graph.by_name.setdefault(func.name, []).append(func)
    return graph
