"""libclang (clang.cindex) frontend for zerodb-analyzer.

Parses real translation units from compile_commands.json and lowers the
AST into the same micro-IR the textual frontend produces, with two
precision upgrades the checks exploit automatically:

  - lock identity is the *semantic* member (`zerodb::obs::MetricsRegistry::
    mu_`), so same-named locks on different classes stay distinct nodes in
    the lock-order graph
  - `ReturnStmt.returns_local` is proven from the AST (a DeclRefExpr whose
    referenced VarDecl lives in the function), instead of matched by name

Availability is probed lazily: `load()` returns the clang.cindex module or
raises FrontendUnavailable with a human-readable reason. Any parse-time
exception is converted into FrontendUnavailable too, so the driver can
degrade to the textual frontend instead of crashing a CI job on a
libclang/ABI mismatch.
"""

import glob
import os

from . import ir


class FrontendUnavailable(Exception):
    pass


_cindex = None


def load():
    """Imports clang.cindex and makes sure libclang is loadable. Returns
    the module; raises FrontendUnavailable otherwise."""
    global _cindex
    if _cindex is not None:
        return _cindex
    try:
        from clang import cindex
    except ImportError as error:
        raise FrontendUnavailable(
            f"python3-clang is not installed ({error})") from error
    try:
        cindex.Index.create()
    except Exception:  # noqa: BLE001 - probe alternate libclang paths
        candidates = sorted(
            glob.glob("/usr/lib/llvm-*/lib/libclang-*.so*")
            + glob.glob("/usr/lib/llvm-*/lib/libclang.so*")
            + glob.glob("/usr/lib/x86_64-linux-gnu/libclang-*.so*"),
            reverse=True)
        for candidate in candidates:
            try:
                cindex.Config.loaded = False
                cindex.Config.set_library_file(candidate)
                cindex.Index.create()
                break
            except Exception:  # noqa: BLE001
                continue
        else:
            raise FrontendUnavailable(
                "clang.cindex imports but libclang.so could not be loaded")
    _cindex = cindex
    return cindex


def _filter_args(command_args):
    """Compile-command argv -> libclang args (drop compiler, -c/-o pairs,
    the source file itself)."""
    args = []
    skip_next = False
    for arg in command_args[1:]:
        if skip_next:
            skip_next = False
            continue
        if arg in ("-c", "-o"):
            skip_next = arg == "-o"
            continue
        if arg.endswith((".cc", ".cpp", ".o")):
            continue
        args.append(arg)
    return args


def _qualified_name(cursor):
    parts = []
    node = cursor
    while node is not None and node.spelling:
        kind = node.kind.name
        if kind in ("TRANSLATION_UNIT",):
            break
        parts.append(node.spelling)
        node = node.semantic_parent
    return "::".join(reversed(parts))


def _extent_lines(cursor):
    return cursor.extent.start.line, cursor.extent.end.line


class _TuLowering:
    def __init__(self, cindex, repo_root, file_cache):
        self.cindex = cindex
        self.repo_root = repo_root
        self.files = file_cache  # rel -> FileIR (merged across TUs)

    def file_ir(self, location_file):
        path = os.path.realpath(str(location_file))
        if not path.startswith(self.repo_root + os.sep):
            return None
        rel = os.path.relpath(path, self.repo_root).replace(os.sep, "/")
        if rel in self.files:
            return self.files[rel]
        try:
            with open(path, encoding="utf-8", errors="replace") as f:
                raw_lines = f.read().splitlines()
        except OSError:
            return None
        fir = ir.FileIR(path=path, rel=rel, module=ir.module_of(rel),
                        raw_lines=raw_lines)
        fir.clang_seen = set()  # dedup across TUs re-parsing one header
        self.files[rel] = fir
        return fir

    def seen(self, fir, key):
        if key in fir.clang_seen:
            return True
        fir.clang_seen.add(key)
        return False

    def lower_tu(self, tu):
        for include in tu.get_includes():
            fir = self.file_ir(include.location.file)
            if fir is None:
                continue
            header = str(include.include)
            for prefix in (os.path.join(self.repo_root, "src") + os.sep,
                           self.repo_root + os.sep):
                real = os.path.realpath(header)
                if real.startswith(prefix):
                    header = real[len(prefix):].replace(os.sep, "/")
                    break
            if not self.seen(fir, ("inc", include.location.line, header)):
                fir.includes.append(ir.Include(
                    header=header, line=include.location.line))
        self.walk(tu.cursor, None, None)

    # -- AST walk ------------------------------------------------------

    def walk(self, node, enclosing_fn, enclosing_scope_end):
        kinds = self.cindex.CursorKind
        for child in node.get_children():
            if child.location.file is None:
                self.walk(child, enclosing_fn, enclosing_scope_end)
                continue
            fir = self.file_ir(child.location.file)
            if fir is None:
                continue
            kind = child.kind
            if kind in (kinds.FUNCTION_DECL, kinds.CXX_METHOD,
                        kinds.CONSTRUCTOR, kinds.DESTRUCTOR,
                        kinds.FUNCTION_TEMPLATE):
                self.lower_function(fir, child)
            elif kind in (kinds.CLASS_DECL, kinds.STRUCT_DECL,
                          kinds.CLASS_TEMPLATE):
                self.lower_class(fir, child)
                self.walk(child, enclosing_fn, enclosing_scope_end)
            else:
                self.walk(child, enclosing_fn, enclosing_scope_end)

    def lower_class(self, fir, cursor):
        kinds = self.cindex.CursorKind
        members = []
        for child in cursor.get_children():
            if child.kind != kinds.FIELD_DECL:
                continue
            type_spelling = child.type.spelling
            is_ref = child.type.kind in (
                self.cindex.TypeKind.LVALUEREFERENCE,
                self.cindex.TypeKind.RVALUEREFERENCE)
            if is_ref or "string_view" in type_spelling:
                members.append(ir.Member(type_text=type_spelling,
                                         name=child.spelling,
                                         line=child.location.line))
        if members and not self.seen(fir, ("cls", cursor.location.line,
                                           cursor.spelling)):
            fir.classes.append(ir.ClassDecl(
                name=cursor.spelling, line=cursor.location.line,
                members=members))

    def lower_function(self, fir, cursor):
        result = cursor.result_type.spelling
        name = cursor.spelling
        if not cursor.is_definition():
            return
        start, end = _extent_lines(cursor)
        func = None
        is_view = "string_view" in result or result.rstrip().endswith("&")
        if is_view and not self.seen(fir, ("fn", start, name)):
            func = ir.Function(name=name, qualified=_qualified_name(cursor),
                               return_type=result, line=start, end_line=end)
            fir.functions.append(func)
        self.lower_body(fir, cursor, func, end)

    def lower_body(self, fir, node, func, scope_end):
        kinds = self.cindex.CursorKind
        for child in node.get_children():
            loc_fir = fir
            if child.location.file is not None:
                loc_fir = self.file_ir(child.location.file) or fir
            kind = child.kind
            line = child.location.line
            if kind == kinds.CALL_EXPR:
                callee = child.referenced
                qualified = (_qualified_name(callee)
                             if callee is not None else child.spelling)
                if child.spelling and not self.seen(
                        loc_fir, ("call", line, child.spelling, id(node))):
                    loc_fir.calls.append(ir.CallSite(
                        name=child.spelling, qualified=qualified or
                        child.spelling, line=line))
            elif kind == kinds.DECL_REF_EXPR and "random_device" in \
                    child.type.spelling:
                loc_fir.decl_types.setdefault(child.spelling,
                                              child.type.spelling)
            elif kind == kinds.VAR_DECL:
                type_spelling = child.type.spelling
                loc_fir.decl_types.setdefault(child.spelling, type_spelling)
                if func is not None and "static" not in [
                        t.spelling for t in child.get_tokens()][:1]:
                    func.locals.setdefault(child.spelling, type_spelling)
                if "MutexLock" in type_spelling:
                    lock_id = self.lock_identity(child)
                    if lock_id and not self.seen(
                            loc_fir, ("lock", line, lock_id)):
                        loc_fir.locks.append(ir.LockAcquire(
                            lock_id=lock_id, line=line,
                            held_until=scope_end))
            elif kind == kinds.CXX_FOR_RANGE_STMT:
                self.lower_range_for(loc_fir, child)
            elif kind == kinds.RETURN_STMT and func is not None:
                expr, returns_local = self.return_info(child, func)
                func.returns.append(ir.ReturnStmt(
                    expr=expr, line=line, returns_local=returns_local))
            if kind == kinds.COMPOUND_STMT:
                _, child_end = _extent_lines(child)
                self.lower_body(fir, child, func, child_end)
            else:
                self.lower_body(fir, child, func, scope_end)

    def lock_identity(self, var_decl):
        """Semantic identity of the lock a MutexLock guards: the qualified
        member/variable behind the `&expr` constructor argument."""
        kinds = self.cindex.CursorKind
        stack = list(var_decl.get_children())
        while stack:
            node = stack.pop()
            if node.kind in (kinds.MEMBER_REF_EXPR, kinds.DECL_REF_EXPR):
                referenced = node.referenced
                if referenced is not None and "Mutex" in \
                        referenced.type.spelling:
                    return _qualified_name(referenced) or node.spelling
            stack.extend(node.get_children())
        tokens = [t.spelling for t in var_decl.get_tokens()]
        return "".join(tokens[-4:-1]) if len(tokens) >= 4 else ""

    def lower_range_for(self, fir, cursor):
        children = list(cursor.get_children())
        if not children:
            return
        start, end = _extent_lines(cursor)
        range_expr = children[-2] if len(children) >= 2 else children[0]
        container_type = range_expr.type.get_canonical().spelling \
            if range_expr.type is not None else ""
        tokens = [t.spelling for t in range_expr.get_tokens()]
        if not self.seen(fir, ("rfor", start, end)):
            fir.range_fors.append(ir.RangeFor(
                container="".join(tokens[:8]),
                container_type=container_type,
                line=start, body_begin=start, body_end=end))

    def return_info(self, return_stmt, func):
        kinds = self.cindex.CursorKind
        tokens = [t.spelling for t in return_stmt.get_tokens()]
        expr = " ".join(tokens[1:]).rstrip(";").strip()
        stack = list(return_stmt.get_children())
        top_level = True
        while stack:
            node = stack.pop()
            if node.kind == kinds.DECL_REF_EXPR:
                referenced = node.referenced
                if referenced is not None and \
                        referenced.kind == kinds.VAR_DECL and \
                        referenced.spelling in func.locals:
                    # Only owning locals dangle: iterators, pointers and
                    # reference locals project into storage that outlives
                    # the frame (typically a member).
                    ref_type = referenced.type
                    type_kinds = self.cindex.TypeKind
                    owning = ref_type.kind not in (
                        type_kinds.POINTER,
                        type_kinds.LVALUEREFERENCE,
                        type_kinds.RVALUEREFERENCE) and \
                        "iterator" not in \
                        ref_type.get_canonical().spelling
                    if owning:
                        return expr, True
            if top_level:
                stack.extend(node.get_children())
                top_level = False
            else:
                stack.extend(node.get_children())
        return expr, None


def parse_compdb(compdb_path, repo_root, limit_files=None):
    """Parses every TU in compile_commands.json; returns {rel: FileIR} for
    all repo files the TUs touch. Raises FrontendUnavailable on any
    libclang-level failure."""
    import json

    cindex = load()
    repo_root = os.path.realpath(repo_root)
    try:
        with open(compdb_path, encoding="utf-8") as f:
            commands = json.load(f)
    except (OSError, ValueError) as error:
        raise FrontendUnavailable(
            f"cannot read {compdb_path}: {error}") from error

    files = {}
    lowering = _TuLowering(cindex, repo_root, files)
    index = cindex.Index.create()
    try:
        for command in commands:
            source = os.path.realpath(
                os.path.join(command.get("directory", "."),
                             command["file"]))
            if not source.startswith(repo_root + os.sep):
                continue
            rel = os.path.relpath(source, repo_root).replace(os.sep, "/")
            if limit_files is not None and rel not in limit_files:
                continue
            if "arguments" in command:
                args = _filter_args(command["arguments"])
            else:
                args = _filter_args(command.get("command", "").split())
            tu = index.parse(source, args=args)
            lowering.lower_tu(tu)
    except FrontendUnavailable:
        raise
    except Exception as error:  # noqa: BLE001 - degrade, don't crash CI
        raise FrontendUnavailable(
            f"libclang parse failed: {error!r}") from error
    return files
