#!/usr/bin/env python3
"""acheron-check: Acheron's static invariant checker (portable driver).

Implements six engine-specific checks over a C++ token stream produced by a
real lexer (comments, string/char literals, raw strings, and preprocessor
lines are understood, so code moving or a call spanning lines cannot silence
a check the way the old line-oriented awk passes could):

  lock-order           Harvest every MutexLock / Mutex::Lock acquisition site
                       plus EXCLUSIVE_LOCKS_REQUIRED annotations into an
                       acquisition graph; fail on cycles or on edges that
                       contradict the declared order in tools/lock_order.txt.
  sync-before-install  In any function whose (transitive) effects create a
                       table/MANIFEST output file, a WritableFile::Sync must
                       separate the creation from the LogAndApply /
                       SetCurrentFile call that makes the file live.
  atomic-ordering      Every std::atomic load/store/RMW in src/ must state
                       its memory order (no implicit seq_cst, no operator
                       sugar), and pointer-publication atomics must pair
                       release-side stores with acquire-side loads.
  guarded-by           Every mutable data member of a class that owns a
                       Mutex must be GUARDED_BY, atomic, const, or on the
                       shrink-only baseline in tools/guarded_by_baseline.txt.
  io-marker            Every call through an Env* in engine code (all of
                       src/ outside src/env/, which implements the Env)
                       must carry an `// io:` marker on the call statement
                       or the line above it.
  state-transition     Every call to a background-error state transition
                       (RecordBackgroundError / ClearBackgroundError /
                       TryResumeFromNoSpace / ReturnToOk) must hold mutex_
                       at the call site, and the transition functions
                       themselves must be declared
                       EXCLUSIVE_LOCKS_REQUIRED(mutex_).

This driver is the *portable subset* of tools/acheron_check/ (the clang-tidy
plugin implements the same invariants on the real AST, with CFG dominance
for sync-before-install). It exists so CI runners and dev boxes without the
clang plugin toolchain still enforce the invariants: tools/lint.sh --ast
invokes it against compile_commands.json.

Suppression: a site may be exempted with a justification comment on the same
line or the line above:

    // acheron: allow(<check-name>) -- <reason>

Exit status: 0 clean, 1 violations, 2 usage/config error.
"""

import argparse
import json
import os
import re
import sys

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Longest-match-first C++ punctuators we care to keep intact (so `==` never
# looks like an assignment and `->` is one token).
PUNCTUATORS = [
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "##",
]

KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "const", "constexpr", "consteval", "constinit",
    "const_cast", "continue", "decltype", "default", "delete", "do",
    "double", "dynamic_cast", "else", "enum", "explicit", "export", "extern",
    "false", "final", "float", "for", "friend", "goto", "if", "inline",
    "int", "long", "mutable", "namespace", "new", "noexcept", "nullptr",
    "operator", "override", "private", "protected", "public", "register",
    "reinterpret_cast", "return", "short", "signed", "sizeof", "static",
    "static_assert", "static_cast", "struct", "switch", "template", "this",
    "thread_local", "throw", "true", "try", "typedef", "typeid", "typename",
    "union", "unsigned", "using", "virtual", "void", "volatile", "wchar_t",
    "while",
}


class Tok:
    __slots__ = ("kind", "text", "line")

    def __init__(self, kind, text, line):
        self.kind = kind  # 'id' | 'num' | 'str' | 'char' | 'punct' | 'pp'
        self.text = text
        self.line = line

    def __repr__(self):
        return f"Tok({self.kind},{self.text!r},L{self.line})"


class LexedFile:
    def __init__(self, path, tokens, comments, stripped):
        self.path = path
        self.tokens = tokens          # list[Tok], no comments
        self.comments = comments      # list[(line, text)]
        self.stripped = stripped      # source with comments/strings blanked
        self.comment_lines = {}       # line -> concatenated comment text
        for line, text in comments:
            self.comment_lines[line] = self.comment_lines.get(line, "") + text


def lex(path, src):
    """Tokenize C++ source. Never throws on malformed input; it just keeps
    scanning, which is the right behavior for a linter."""
    toks = []
    comments = []
    out = list(src)  # stripped copy, built by blanking spans

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    i, n, line = 0, len(src), 1
    at_line_start = True
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Preprocessor directive: consume the logical line (with \-splices).
        if c == "#" and at_line_start:
            start = i
            start_line = line
            while i < n:
                if src[i] == "\\" and i + 1 < n and src[i + 1] == "\n":
                    i += 2
                    line += 1
                    continue
                if src[i] == "\n":
                    break
                # A comment may open inside a directive; skip block comments
                # so a */ on a later line doesn't leak.
                if src[i] == "/" and i + 1 < n and src[i + 1] == "*":
                    j = src.find("*/", i + 2)
                    j = n if j < 0 else j + 2
                    line += src.count("\n", i, j)
                    i = j
                    continue
                if src[i] == "/" and i + 1 < n and src[i + 1] == "/":
                    j = src.find("\n", i)
                    i = n if j < 0 else j
                    continue
                i += 1
            toks.append(Tok("pp", src[start:i], start_line))
            at_line_start = True
            continue
        at_line_start = False
        # Comments.
        if c == "/" and i + 1 < n and src[i + 1] == "/":
            j = src.find("\n", i)
            j = n if j < 0 else j
            comments.append((line, src[i:j]))
            blank(i, j)
            i = j
            continue
        if c == "/" and i + 1 < n and src[i + 1] == "*":
            j = src.find("*/", i + 2)
            j = n if j < 0 else j + 2
            # Attribute the block comment to every line it covers.
            text = src[i:j]
            ln = line
            for part in text.split("\n"):
                comments.append((ln, part))
                ln += 1
            blank(i, j)
            line += text.count("\n")
            i = j
            continue
        # Raw strings.
        if c == "R" and i + 1 < n and src[i + 1] == '"':
            m = re.match(r'R"([^()\\ \n]*)\(', src[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = src.find(close, i + len(m.group(0)))
                j = n if j < 0 else j + len(close)
                toks.append(Tok("str", src[i:j], line))
                blank(i + len(m.group(0)), max(i + len(m.group(0)),
                                               j - len(close)))
                line += src.count("\n", i, j)
                i = j
                continue
        # String / char literals.
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and src[j] != quote:
                if src[j] == "\\":
                    j += 1
                elif src[j] == "\n":
                    break  # unterminated; bail at EOL
                j += 1
            j = min(j + 1, n)
            toks.append(Tok("str" if quote == '"' else "char",
                            src[i:j], line))
            blank(i + 1, max(i + 1, j - 1))
            i = j
            continue
        # Identifiers / keywords.
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            toks.append(Tok("id", src[i:j], line))
            i = j
            continue
        # Numbers (good enough: digits, dots, exponents, suffixes, hex).
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i + 1
            while j < n and (src[j].isalnum() or src[j] in "._'" or
                             (src[j] in "+-" and src[j - 1] in "eEpP")):
                j += 1
            toks.append(Tok("num", src[i:j], line))
            i = j
            continue
        # Punctuators.
        for p in PUNCTUATORS:
            if src.startswith(p, i):
                toks.append(Tok("punct", p, line))
                i += len(p)
                break
        else:
            toks.append(Tok("punct", c, line))
            i += 1
    return LexedFile(path, toks, comments, "".join(out))


# ---------------------------------------------------------------------------
# Structural scan: scopes, classes, function definitions, member decls, calls
# ---------------------------------------------------------------------------

ANNOTATION_MACROS = {
    "GUARDED_BY", "PT_GUARDED_BY", "ACQUIRED_AFTER", "ACQUIRED_BEFORE",
    "EXCLUSIVE_LOCKS_REQUIRED", "SHARED_LOCKS_REQUIRED", "LOCKS_EXCLUDED",
    "LOCK_RETURNED", "LOCKABLE", "SCOPED_LOCKABLE", "EXCLUSIVE_LOCK_FUNCTION",
    "SHARED_LOCK_FUNCTION", "UNLOCK_FUNCTION", "EXCLUSIVE_TRYLOCK_FUNCTION",
    "SHARED_TRYLOCK_FUNCTION", "ASSERT_EXCLUSIVE_LOCK", "ASSERT_SHARED_LOCK",
    "NO_THREAD_SAFETY_ANALYSIS",
}

ATOMIC_OPS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "compare_exchange_weak",
    "compare_exchange_strong",
}


class Member:
    __slots__ = ("cls", "name", "line", "path", "guarded_by", "is_atomic",
                 "atomic_pointee", "is_const", "is_mutex", "is_condvar",
                 "is_static", "type_tokens")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw.get(k))


class CallSite:
    __slots__ = ("name", "recv", "start_line", "end_line", "arg_tokens",
                 "depth", "index")

    def __init__(self, name, recv, start_line, end_line, arg_tokens, depth,
                 index):
        self.name = name            # callee (last identifier)
        self.recv = recv            # receiver id chain, [] if none
        self.start_line = start_line
        self.end_line = end_line
        self.arg_tokens = arg_tokens
        self.depth = depth          # brace depth inside the function body
        self.index = index          # token index (ordering)


class LockEvent:
    __slots__ = ("kind", "lock", "line", "depth", "index")

    def __init__(self, kind, lock, line, depth, index):
        self.kind = kind  # 'scoped' | 'lock' | 'unlock'
        self.lock = lock  # raw receiver chain, e.g. ['mutex_'] or ['impl','mutex_']
        self.line = line
        self.depth = depth
        self.index = index


class Func:
    __slots__ = ("qname", "cls", "name", "path", "line", "end_line",
                 "required", "calls", "lock_events", "local_ptr_types",
                 "local_value_types", "body_ids")

    def __init__(self, qname, cls, name, path, line):
        self.qname = qname
        self.cls = cls
        self.name = name
        self.path = path
        self.line = line
        self.end_line = line
        self.required = []       # lock exprs from EXCLUSIVE_LOCKS_REQUIRED
        self.calls = []          # [CallSite]
        self.lock_events = []    # [LockEvent]
        self.local_ptr_types = {}  # var name -> class name (for Type* var)
        # var name -> type name for `Type var(...)` / `Type var;` / `Type
        # var{...}` / `Type var = ...`; trusted only for harvested classes.
        self.local_value_types = {}
        self.body_ids = set()    # all identifier texts in the body


class FileModel:
    def __init__(self, lexed):
        self.lexed = lexed
        self.path = lexed.path
        self.members = []   # [Member]
        self.funcs = []     # [Func]
        self.classes = set()  # class/struct names seen in this file
        self.bases = {}     # class name -> set of base-class ids


def _decl_member(cls, decl, path):
    """Interpret a class-scope declaration (tokens up to `;`) as a data
    member; returns Member or None (method decls, using, friend, ...)."""
    ids = [t.text for t in decl if t.kind == "id"]
    if not ids:
        return None
    first = ids[0]
    if first in ("using", "typedef", "friend", "template", "operator",
                 "public", "private", "protected", "static_assert",
                 "class", "struct", "enum", "union"):
        # also covers nested-type forward declarations (`struct Writer;`)
        return None
    if "operator" in ids:
        return None
    is_static = "static" in ids or "constexpr" in ids
    # Find annotation and strip annotation-macro parens when locating the
    # parameter list that would make this a method declaration.
    guarded_by = None
    i = 0
    depth_angle = 0
    paren_after_name = False
    name = None
    name_line = decl[0].line
    type_tokens = []
    # Walk tokens; a top-level '(' whose previous token is a plain
    # identifier (not an annotation macro, not a type keyword) means a
    # method declaration *if* we have not yet hit '=', '{', or '['.
    j = 0
    while j < len(decl):
        t = decl[j]
        if t.kind == "punct" and t.text == "<":
            depth_angle += 1
        elif t.kind == "punct" and t.text == ">":
            depth_angle = max(0, depth_angle - 1)
        if t.kind == "id" and t.text in ANNOTATION_MACROS:
            if t.text == "GUARDED_BY" and j + 1 < len(decl) and \
                    decl[j + 1].text == "(":
                # capture the lock expression
                k = j + 2
                d = 1
                expr = []
                while k < len(decl) and d > 0:
                    if decl[k].text == "(":
                        d += 1
                    elif decl[k].text == ")":
                        d -= 1
                        if d == 0:
                            break
                    expr.append(decl[k].text)
                    k += 1
                guarded_by = "".join(expr)
                j = k + 1
                continue
            # skip any annotation macro's parens
            if j + 1 < len(decl) and decl[j + 1].text == "(":
                k = j + 2
                d = 1
                while k < len(decl) and d > 0:
                    if decl[k].text == "(":
                        d += 1
                    elif decl[k].text == ")":
                        d -= 1
                    k += 1
                j = k
                continue
            j += 1
            continue
        if t.kind == "punct" and t.text in ("=", "{", "["):
            break
        if t.kind == "punct" and t.text == "(" and depth_angle == 0:
            prev = decl[j - 1] if j > 0 else None
            if prev is not None and prev.kind == "id" and \
                    prev.text not in KEYWORDS:
                paren_after_name = True
            break
        if t.kind == "id" and t.text not in KEYWORDS:
            name = t.text
            name_line = t.line
            type_tokens = [x.text for x in decl[:j] if x.kind in
                           ("id", "punct")]
        j += 1
    if paren_after_name or name is None:
        return None
    tt = type_tokens
    # A top-level '*' (outside the template args) makes this a pointer
    # member: `std::atomic<uint64_t>* sink` is a plain pointer, not an
    # atomic, and must not be exempted (or operator-checked) as one.
    d = 0
    toplevel_ptr = False
    for x in tt:
        if x == "<":
            d += 1
        elif x == ">":
            d = max(0, d - 1)
        elif x == "*" and d == 0:
            toplevel_ptr = True
    is_atomic = "atomic" in tt and not toplevel_ptr
    atomic_pointee = False
    if is_atomic:
        # pointer payload: a '*' inside the template args
        try:
            lt = tt.index("<")
            gt = len(tt) - 1 - tt[::-1].index(">")
            atomic_pointee = "*" in tt[lt:gt + 1]
        except ValueError:
            pass
    # const at top level (outside <>): scan with angle tracking
    is_const = False
    d = 0
    for x in tt:
        if x == "<":
            d += 1
        elif x == ">":
            d = max(0, d - 1)
        elif x == "const" and d == 0:
            is_const = True
    is_mutex = (not is_atomic and "Mutex" in tt and "*" not in tt and
                "&" not in tt)
    is_condvar = "CondVar" in tt and "*" not in tt
    return Member(cls=cls, name=name, line=name_line, path=path,
                  guarded_by=guarded_by, is_atomic=is_atomic,
                  atomic_pointee=atomic_pointee, is_const=is_const,
                  is_mutex=is_mutex, is_condvar=is_condvar,
                  type_tokens=tt, is_static=is_static)


def _match_paren(toks, i):
    """toks[i] == '('; return index of matching ')' (or len-1)."""
    d = 0
    j = i
    while j < len(toks):
        t = toks[j]
        if t.kind == "punct":
            if t.text == "(":
                d += 1
            elif t.text == ")":
                d -= 1
                if d == 0:
                    return j
        j += 1
    return len(toks) - 1


def _recv_chain(toks, i):
    """Identifier chain feeding toks[i] (a callee id) through -> / . / ::.
    Returns list of ids, [] if the callee has no receiver."""
    chain = []
    j = i - 1
    while j > 0:
        t = toks[j]
        if t.kind == "punct" and t.text in ("->", ".", "::"):
            p = toks[j - 1]
            if p.kind == "id" or (p.kind == "punct" and p.text in (")", "]")):
                if p.kind == "id":
                    chain.append(p.text)
                    j -= 2
                    continue
                chain.append("<expr>")
            break
        break
    chain.reverse()
    return chain


def parse_file(lexed):
    """One pass over the token stream building classes, members, functions,
    and per-function call/lock events."""
    model = FileModel(lexed)
    toks = lexed.tokens
    n = len(toks)
    # scope stack entries: ('namespace', name) ('class', name)
    # ('function', Func) ('block', None) ('skip', None)
    scopes = []
    decl = []  # tokens since last ; { } at class/namespace scope
    i = 0

    def cur_class():
        for kind, val in reversed(scopes):
            if kind == "class":
                return val
        return None

    def cur_func():
        for kind, val in reversed(scopes):
            if kind == "function":
                return val
        return None

    def func_depth():
        d = 0
        seen = False
        for kind, _ in scopes:
            if seen:
                d += 1
            if kind == "function":
                seen = True
        return d

    while i < n:
        t = toks[i]
        f = cur_func()
        if f is None:
            # --- namespace/class scope ---
            if t.kind == "punct" and t.text == ";":
                decl = []
                i += 1
                continue
            if t.kind == "punct" and t.text == "}":
                if scopes:
                    popped = scopes.pop()
                decl = []
                i += 1
                continue
            if t.kind == "punct" and t.text == "{":
                ids = [x.text for x in decl if x.kind == "id"]
                opener = None
                if "namespace" in ids:
                    nm = ids[ids.index("namespace") + 1] if \
                        ids.index("namespace") + 1 < len(ids) else ""
                    opener = ("namespace", nm)
                elif "enum" in ids:
                    opener = ("skip", None)
                elif ("class" in ids or "struct" in ids or "union" in ids) \
                        and "=" not in [x.text for x in decl]:
                    kw = "class" if "class" in ids else (
                        "struct" if "struct" in ids else "union")
                    k = ids.index(kw)
                    # `struct DBImpl::CompactionState {` names the nested
                    # class, not DBImpl: take the last id of the :: chain
                    # (stop at a base-class list's ':').
                    nm = "<anon>"
                    for x in decl[_first_index(decl, kw) + 1:]:
                        if x.kind == "punct" and x.text == ":":
                            break
                        if x.kind == "punct" and x.text not in ("::",):
                            break
                        if x.kind == "id" and x.text not in ("final",
                                                             "public"):
                            nm = x.text
                    opener = ("class", nm)
                    model.classes.add(nm)
                    # Base-class list (for virtual-dispatch resolution):
                    # ids after the first ':' that are not access keywords.
                    seen_colon = False
                    bases = set()
                    for x in decl[k + 1:]:
                        if x.kind == "punct" and x.text == ":":
                            seen_colon = True
                        elif seen_colon and x.kind == "id" and x.text not in (
                                "public", "private", "protected", "virtual",
                                "final"):
                            bases.add(x.text)
                    if bases:
                        model.bases.setdefault(nm, set()).update(bases)
                else:
                    # function definition / initializer
                    texts = [x.text for x in decl]
                    if "(" in texts and "=" not in _toplevel(decl):
                        fn = _make_func(decl, cur_class(), lexed.path)
                        if fn is not None:
                            opener = ("function", fn)
                            model.funcs.append(fn)
                    if opener is None and cur_class() is not None and \
                            decl and "(" not in texts:
                        # Member brace-or-equals initializer, e.g.
                        # `std::atomic<int> hits_{0};` — collect the member
                        # and skip the initializer braces (no new scope).
                        m = _decl_member(cur_class(), decl + [], lexed.path)
                        if m is not None:
                            model.members.append(m)
                        d = 0
                        j = i
                        while j < n:
                            if toks[j].kind == "punct":
                                if toks[j].text == "{":
                                    d += 1
                                elif toks[j].text == "}":
                                    d -= 1
                                    if d == 0:
                                        break
                            j += 1
                        decl = []
                        i = j + 1
                        continue
                    if opener is None:
                        opener = ("skip", None)
                scopes.append(opener)
                decl = []
                i += 1
                continue
            if t.kind == "punct" and t.text == ":" and decl and \
                    decl[-1].kind == "id" and decl[-1].text in (
                        "public", "private", "protected"):
                decl = []
                i += 1
                continue
            # member declaration terminator is ';' (handled above); but a
            # class-scope decl containing '{' with '=' is e.g. int x{0};
            decl.append(t)
            # collect member at ';' — peek: we append tokens and flush on ';'
            if cur_class() is not None and i + 1 < n and \
                    toks[i + 1].kind == "punct" and toks[i + 1].text == ";":
                m = _decl_member(cur_class(), decl + [], lexed.path)
                if m is not None:
                    model.members.append(m)
            # inline member functions: a '{' will be caught by the branch
            # above on the next loop iteration.
            # in-class brace-or-equals init (std::atomic<T> x{v};):
            if cur_class() is not None and t.kind == "punct" and \
                    t.text == "{":
                pass
            i += 1
            continue
        # --- inside a function body ---
        f.end_line = max(f.end_line, t.line)
        if t.kind == "id":
            f.body_ids.add(t.text)
        if t.kind == "punct" and t.text == "{":
            scopes.append(("block", None))
            i += 1
            continue
        if t.kind == "punct" and t.text == "}":
            popped = scopes.pop()
            if popped[0] == "function":
                pass
            i += 1
            continue
        depth = func_depth()
        # `return` inside a nested block exits the function: locks acquired
        # in that block are not held on the fall-through path after it.
        if t.kind == "id" and t.text == "return" and depth > 0:
            f.lock_events.append(LockEvent("return", [], t.line, depth, i))
            i += 1
            continue
        # MutexLock l(&expr);  /  std::lock_guard-style not used.
        if t.kind == "id" and t.text == "MutexLock" and i + 2 < n and \
                toks[i + 1].kind == "id" and toks[i + 2].text == "(":
            close = _match_paren(toks, i + 2)
            expr = [x.text for x in toks[i + 3:close]
                    if x.kind == "id"]
            f.lock_events.append(LockEvent("scoped", expr, t.line, depth, i))
            i = close + 1
            continue
        # X.Lock() / X->Lock() / Unlock / TryLock
        if t.kind == "id" and t.text in ("Lock", "Unlock") and \
                i + 1 < n and toks[i + 1].text == "(" and i > 0 and \
                toks[i - 1].kind == "punct" and toks[i - 1].text in \
                ("->", "."):
            recv = _recv_chain(toks, i)
            kind = "lock" if t.text == "Lock" else "unlock"
            f.lock_events.append(LockEvent(kind, recv, t.line, depth, i))
            i += 2
            continue
        # Local pointer declarations: Type* name / Type* name =
        if t.kind == "id" and t.text not in KEYWORDS and i + 2 < n and \
                toks[i + 1].text == "*" and toks[i + 2].kind == "id" and \
                (i + 3 >= n or toks[i + 3].text in ("=", ";", ")", ",")):
            f.local_ptr_types.setdefault(toks[i + 2].text, t.text)
        # Local value declarations: Type name( / Type name; / Type name{ /
        # Type name = (the type must not itself be a member access).
        if t.kind == "id" and t.text not in KEYWORDS and i + 2 < n and \
                toks[i + 1].kind == "id" and \
                toks[i + 1].text not in KEYWORDS and \
                toks[i + 2].text in ("(", ";", "{", "=") and \
                (i == 0 or toks[i - 1].text not in (".", "->")):
            f.local_value_types.setdefault(toks[i + 1].text, t.text)
        # Generic call site: id (
        if t.kind == "id" and t.text not in KEYWORDS and i + 1 < n and \
                toks[i + 1].kind == "punct" and toks[i + 1].text == "(":
            close = _match_paren(toks, i + 1)
            recv = _recv_chain(toks, i)
            f.calls.append(CallSite(
                t.text, recv, t.line, toks[close].line,
                toks[i + 2:close], depth, i))
            # do NOT skip args: nested calls must be seen too
            i += 1
            continue
        i += 1
    return model


def _first_index(decl, text):
    for j, t in enumerate(decl):
        if t.kind == "id" and t.text == text:
            return j
    return -1


def _toplevel(decl):
    """Texts of decl tokens outside any () <> [] nesting."""
    out = []
    d = 0
    for t in decl:
        if t.kind == "punct" and t.text in ("(", "[",):
            d += 1
        elif t.kind == "punct" and t.text in (")", "]"):
            d = max(0, d - 1)
        elif d == 0:
            out.append(t.text)
    return out


def _make_func(decl, cls, path):
    """Build a Func from a declaration ending in '{'. Returns None if this
    does not look like a function definition."""
    # find first top-level '(' — the parameter list
    d_angle = 0
    pidx = None
    for j, t in enumerate(decl):
        if t.kind == "punct":
            if t.text == "<":
                d_angle += 1
            elif t.text == ">":
                d_angle = max(0, d_angle - 1)
            elif t.text == "(" and d_angle == 0:
                pidx = j
                break
    if pidx is None or pidx == 0:
        return None
    # name = id chain immediately before '('
    j = pidx - 1
    if decl[j].kind != "id" or decl[j].text in KEYWORDS:
        return None
    name = decl[j].text
    qual = [name]
    j -= 1
    while j > 0 and decl[j].kind == "punct" and decl[j].text == "::" and \
            decl[j - 1].kind == "id":
        qual.insert(0, decl[j - 1].text)
        j -= 2
    if cls is None and len(qual) > 1:
        cls = qual[-2]
    qname = (cls + "::" + name) if cls else name
    fn = Func(qname, cls, name, path, decl[0].line)
    # annotations after the parameter list
    close = None
    d = 0
    for k in range(pidx, len(decl)):
        t = decl[k]
        if t.kind == "punct":
            if t.text == "(":
                d += 1
            elif t.text == ")":
                d -= 1
                if d == 0:
                    close = k
                    break
    if close is not None:
        # Pointer/reference parameters feed receiver-type resolution the
        # same way local `Type* name` declarations do.
        for k in range(pidx + 1, close - 1):
            a, b, c2 = decl[k], decl[k + 1], decl[k + 2]
            if a.kind == "id" and a.text not in KEYWORDS and \
                    b.kind == "punct" and b.text in ("*", "&") and \
                    c2.kind == "id" and c2.text not in KEYWORDS:
                fn.local_ptr_types.setdefault(c2.text, a.text)
        k = close + 1
        while k < len(decl):
            t = decl[k]
            if t.kind == "id" and t.text in (
                    "EXCLUSIVE_LOCKS_REQUIRED", "SHARED_LOCKS_REQUIRED") \
                    and k + 1 < len(decl) and decl[k + 1].text == "(":
                d = 1
                m = k + 2
                expr = []
                while m < len(decl) and d > 0:
                    if decl[m].text == "(":
                        d += 1
                    elif decl[m].text == ")":
                        d -= 1
                        if d == 0:
                            break
                    expr.append(decl[m].text)
                    m += 1
                fn.required.append("".join(expr))
                k = m
            k += 1
    return fn


# ---------------------------------------------------------------------------
# Violation reporting and suppression
# ---------------------------------------------------------------------------

ALLOW_RE = re.compile(r"acheron:\s*allow\(([a-z0-9-]+)\)")


class Reporter:
    def __init__(self):
        self.violations = []

    def report(self, lexed, line, check, msg):
        for ln in (line, line - 1):
            text = lexed.comment_lines.get(ln, "")
            m = ALLOW_RE.search(text)
            if m and m.group(1) == check:
                return
        self.violations.append((lexed.path, line, check, msg))


# ---------------------------------------------------------------------------
# Check: atomic-ordering
# ---------------------------------------------------------------------------

VALID_STORE_ORDERS = {"memory_order_release", "memory_order_seq_cst",
                      "memory_order_acq_rel"}
VALID_LOAD_ORDERS = {"memory_order_acquire", "memory_order_seq_cst",
                     "memory_order_consume"}


def check_atomic_ordering(models, reporter, pointer_atomics, atomic_names):
    # Names that are ALSO a non-atomic member somewhere: a `x.name = v`
    # match on those is ambiguous at token level, so only bare uses count.
    plain_names = set()
    for model in models:
        for m in model.members:
            if not m.is_atomic:
                plain_names.add(m.name)
    for model in models:
        lexed = model.lexed
        file_atomics = atomic_names.get(_unit_key(model.path), set())
        for fn in model.funcs:
            for c in fn.calls:
                if c.name not in ATOMIC_OPS or not c.recv:
                    continue
                orders = [t.text for t in c.arg_tokens
                          if t.kind == "id" and
                          t.text.startswith("memory_order_")]
                if not orders:
                    reporter.report(
                        lexed, c.start_line, "atomic-ordering",
                        f"{c.name}() without an explicit std::memory_order "
                        "(implicit seq_cst is banned in src/; state the "
                        "ordering)")
                    continue
                target = c.recv[-1]
                if target in pointer_atomics:
                    if c.name in ("store", "exchange") or \
                            c.name.startswith("compare_exchange"):
                        if not any(o in VALID_STORE_ORDERS for o in orders):
                            reporter.report(
                                lexed, c.start_line, "atomic-ordering",
                                f"pointer-publication store to '{target}' "
                                f"must use release ordering (got "
                                f"{', '.join(orders)}); the ReadState "
                                "protocol pairs release stores with acquire "
                                "loads")
                    elif c.name == "load":
                        if not any(o in VALID_LOAD_ORDERS for o in orders):
                            reporter.report(
                                lexed, c.start_line, "atomic-ordering",
                                f"pointer-publication load of '{target}' "
                                f"must use acquire ordering (got "
                                f"{', '.join(orders)})")
        # Operator sugar on known atomic members of this translation unit:
        # x = v, x++, ++x, x += v are implicit seq_cst.
        toks = lexed.tokens
        for i, t in enumerate(toks):
            if t.kind != "id" or t.text not in file_atomics:
                continue
            nxt = toks[i + 1] if i + 1 < len(toks) else None
            prv = toks[i - 1] if i > 0 else None
            # skip declarations (preceded by > or type id) and member access
            if nxt is None or nxt.kind != "punct":
                continue
            if prv is not None and prv.kind == "id":
                continue  # `std::atomic<T> name` declaration site
            if prv is not None and prv.kind == "punct" and \
                    prv.text in (".", "->") and t.text in plain_names:
                continue  # member access on a name shared with plain members
            if nxt.text in ("=", "++", "--", "+=", "-=", "|=", "&=", "^="):
                # `name =` after . or -> or at statement start
                if nxt.text == "=" and prv is not None and \
                        prv.kind == "punct" and prv.text in ("<", ","):
                    continue
                reporter.report(
                    lexed, t.line, "atomic-ordering",
                    f"operator '{nxt.text}' on std::atomic '{t.text}' is an "
                    "implicit seq_cst access; use load/store/fetch_* with "
                    "an explicit memory order")


def _unit_key(path):
    """foo.cc and foo.h share one translation-unit key."""
    base = os.path.basename(path)
    return re.sub(r"\.(cc|h)$", "", base)


# ---------------------------------------------------------------------------
# Check: io-marker
# ---------------------------------------------------------------------------

ENV_RECEIVERS = {"env_", "env"}


def check_io_marker(models, reporter):
    for model in models:
        lexed = model.lexed
        rel = model.path.replace("\\", "/")
        if "/src/env/" in "/" + rel or rel.startswith("src/env/"):
            continue  # Env implementations, not Env consumers
        for fn in model.funcs:
            for c in fn.calls:
                if not c.recv or c.recv[-1] not in ENV_RECEIVERS:
                    continue
                covered = any(
                    "// io:" in lexed.comment_lines.get(ln, "")
                    for ln in range(c.start_line - 1, c.end_line + 1))
                if not covered:
                    # Walk the contiguous comment block above the call: a
                    # marker at the top of a multi-line comment still counts.
                    ln = c.start_line - 1
                    while ln in lexed.comment_lines:
                        if "// io:" in lexed.comment_lines[ln]:
                            covered = True
                            break
                        ln -= 1
                if not covered:
                    reporter.report(
                        lexed, c.start_line, "io-marker",
                        f"Env call '{c.recv[-1]}->{c.name}(...)' without an "
                        "`// io:` marker stating which side of the DB mutex "
                        "it runs on (io: unlocked | io: mutex-held -- "
                        "<reason> | io: open/recovery | io: repair)")


# ---------------------------------------------------------------------------
# Check: guarded-by (coverage ratchet)
# ---------------------------------------------------------------------------

def check_guarded_by(models, reporter, baseline_path, explicit_files):
    baseline = {}
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path) as fh:
            for ln in fh:
                entry = ln.split("#", 1)[0].strip()
                if entry:
                    baseline[entry.split()[0]] = False  # -> used?
    mutex_classes = set()
    for model in models:
        for m in model.members:
            if m.is_mutex:
                mutex_classes.add(m.cls)
    for model in models:
        lexed = model.lexed
        for m in model.members:
            if m.cls not in mutex_classes:
                continue
            if (m.guarded_by or m.is_atomic or m.is_const or m.is_mutex or
                    m.is_condvar or m.is_static):
                continue
            key = f"{m.cls}::{m.name}"
            if key in baseline:
                baseline[key] = True
                continue
            reporter.report(
                lexed, m.line, "guarded-by",
                f"'{key}' is mutable state in a Mutex-owning class but is "
                "neither GUARDED_BY, atomic, nor const; annotate it or add "
                f"'{key}' to {baseline_path} with a reason (the baseline "
                "only ever shrinks)")
    # Ratchet: stale entries must be removed. Only meaningful when scanning
    # the whole tree (explicit fixture runs see a subset of classes).
    if not explicit_files:
        for key, used in sorted(baseline.items()):
            if not used:
                reporter.violations.append(
                    (baseline_path, 1, "guarded-by",
                     f"stale baseline entry '{key}' (member gone or now "
                     "annotated); remove it — the ratchet only shrinks"))


# ---------------------------------------------------------------------------
# Symbol registry: strict callee resolution shared by the interprocedural
# checks (lock-order, sync-before-install)
# ---------------------------------------------------------------------------

class Registry:
    """Cross-file symbol tables. The point of this class is *strict* callee
    resolution: a call propagates interprocedural facts only when the callee
    can actually be pinned down (receiver type known, or the name is globally
    unique). Name-collision fan-out (every `Get`/`Delete`/`Add` in the tree)
    is what made naive summaries useless."""

    def __init__(self, models, skip_paths=()):
        self.funcs_by_name = {}   # bare name -> [Func]
        self.class_methods = {}   # class -> set of harvested method names
        self.member_types = {}    # (class, member) -> class name of payload
        self.classes = set()
        self.lexed_of = {}        # id(Func) -> LexedFile
        self.all_funcs = []
        bases = {}
        for model in models:
            self.classes |= model.classes
            for c, bs in model.bases.items():
                bases.setdefault(c, set()).update(bs)
        for model in models:
            skip = any(model.path.endswith(p) for p in skip_paths)
            for fn in model.funcs:
                self.lexed_of[id(fn)] = model.lexed
                if skip:
                    continue
                self.funcs_by_name.setdefault(fn.name, []).append(fn)
                self.all_funcs.append(fn)
                if fn.cls:
                    self.class_methods.setdefault(fn.cls, set()).add(fn.name)
            for m in model.members:
                ty = None
                for x in m.type_tokens:
                    if x in self.classes:
                        ty = x  # last class id wins: unique_ptr<T> -> T
                if ty is not None:
                    self.member_types[(m.cls, m.name)] = ty
        # base -> all transitively derived classes (virtual dispatch set)
        self.derived = {}
        for c in bases:
            seen = set()
            work = list(bases[c])
            while work:
                b = work.pop()
                if b in seen:
                    continue
                seen.add(b)
                self.derived.setdefault(b, set()).add(c)
                work.extend(bases.get(b, ()))

    def recv_type(self, fn, chain):
        """Class name of the receiver expression, or None."""
        first = chain[0]
        if first == "this":
            t = fn.cls
        elif first in fn.local_ptr_types:
            t = fn.local_ptr_types[first]
        elif fn.local_value_types.get(first) in self.classes:
            t = fn.local_value_types[first]
        elif fn.cls is not None and (fn.cls, first) in self.member_types:
            t = self.member_types[(fn.cls, first)]
        elif first in self.classes:
            t = first  # static/qualified call: Class::Method(...)
        else:
            return None
        for nxt in chain[1:]:
            if t is None:
                return None
            t = self.member_types.get((t, nxt))
        return t

    def resolve_callees(self, fn, call):
        """Funcs a call site may reach. Policy, strictest first:
        receiver type resolved -> that class's harvested method, else the
        virtual-dispatch set (harvested same-name methods on transitively
        derived classes); receiver unresolved -> only a globally unique
        name; bare call -> same-class method, else unique name."""
        cands = self.funcs_by_name.get(call.name, [])
        if not cands:
            return []
        if call.recv:
            if "<expr>" in call.recv:
                return cands if len(cands) == 1 else []
            t = self.recv_type(fn, call.recv)
            if t is not None:
                own = [g for g in cands if g.cls == t]
                if own:
                    return own
                sub = self.derived.get(t, ())
                return [g for g in cands if g.cls in sub]
            return cands if len(cands) == 1 else []
        if fn.cls:
            own = [g for g in cands if g.cls == fn.cls]
            if own:
                return own
        return cands if len(cands) == 1 else []


# ---------------------------------------------------------------------------
# Check: lock-order
# ---------------------------------------------------------------------------

def load_lock_order(path):
    order = []
    with open(path) as fh:
        for ln in fh:
            entry = ln.split("#", 1)[0].strip()
            if entry:
                order.append(entry)
    return order


def check_lock_order(models, reporter, order_path, reg):
    if not os.path.exists(order_path):
        print(f"acheron-check: lock order file {order_path} not found",
              file=sys.stderr)
        sys.exit(2)
    order = load_lock_order(order_path)
    rank = {name: i for i, name in enumerate(order)}

    # Lock identity resolution: member name -> owning classes.
    mutex_members = {}  # member name -> set of class names
    for model in models:
        for m in model.members:
            if m.is_mutex:
                mutex_members.setdefault(m.name, set()).add(m.cls)

    all_funcs = reg.all_funcs

    def resolve(fn, chain):
        """Resolve a lock receiver chain to 'Class::member' or None."""
        if not chain:
            return None
        member = chain[-1]
        owners = mutex_members.get(member)
        if not owners:
            return None
        if len(chain) == 1:
            if fn.cls in owners:
                return f"{fn.cls}::{member}"
            if len(owners) == 1:
                return f"{next(iter(owners))}::{member}"
            return None
        holder = chain[-2]
        t = fn.local_ptr_types.get(holder)
        if t in owners:
            return f"{t}::{member}"
        if len(owners) == 1:
            return f"{next(iter(owners))}::{member}"
        return None

    # Direct-acquisition summaries (locks acquired fresh, i.e. not
    # re-acquisitions after an Unlock of the same lock).
    direct_acq = {}
    for fn in all_funcs:
        acq = set()
        unlocked = set()
        for ev in sorted(fn.lock_events, key=lambda e: e.index):
            if ev.kind == "return":
                continue
            lk = resolve(fn, ev.lock)
            if lk is None:
                continue
            if ev.kind == "unlock":
                unlocked.add(lk)
            elif lk not in unlocked and lk not in fn_required_set(fn, resolve):
                acq.add(lk)
        direct_acq[id(fn)] = acq

    # Transitive closure over the name-resolved call graph.
    trans_acq = {id(fn): set(s) for fn, s in
                 ((f, direct_acq[id(f)]) for f in all_funcs)}
    changed = True
    guard = 0
    while changed and guard < 50:
        changed = False
        guard += 1
        for fn in all_funcs:
            cur = trans_acq[id(fn)]
            for c in fn.calls:
                for g in reg.resolve_callees(fn, c):
                    if g is fn:
                        continue
                    extra = trans_acq[id(g)] - cur
                    # a callee that REQUIRES a lock held does not acquire it
                    extra -= fn_required_set(g, resolve)
                    if extra:
                        cur |= extra
                        changed = True

    # Edge harvesting with held-set tracking.
    edges = {}  # (L, M) -> (path, line, note)
    for fn in all_funcs:
        lexed = reg.lexed_of[id(fn)]
        # held entries: (lock, scope_depth or None for explicit, acq_depth);
        # EXCLUSIVE_LOCKS_REQUIRED locks use acq_depth -1 (held on entry).
        held = []
        for lk in sorted(fn_required_set(fn, resolve)):
            held.append((lk, None, -1))
        events = []
        for ev in fn.lock_events:
            events.append((ev.index, "lockev", ev))
        for c in fn.calls:
            events.append((c.index, "call", c))
        events.sort(key=lambda x: x[0])
        for _, kind, ev in events:
            if kind == "lockev":
                if ev.kind == "return":
                    # Locks acquired inside the returning block are released
                    # on that exiting path; the fall-through never holds them.
                    held = [h for h in held if h[2] < ev.depth]
                    continue
                lk = resolve(fn, ev.lock)
                if lk is None:
                    continue
                if ev.kind == "unlock":
                    held = [h for h in held if h[0] != lk]
                    continue
                # scope-expiry for scoped locks
                held = [h for h in held
                        if h[1] is None or h[1] <= ev.depth]
                for h, _d, _a in held:
                    if h == lk:
                        reporter.report(
                            lexed, ev.line, "lock-order",
                            f"re-acquisition of '{lk}' while already held")
                        break
                    edges.setdefault((h, lk),
                                     (fn.path, ev.line,
                                      f"in {fn.qname}"))
                held.append((lk, ev.depth if ev.kind == "scoped" else None,
                             ev.depth))
            else:
                c = ev
                held = [h for h in held if h[1] is None or h[1] <= c.depth]
                if not held:
                    continue
                callee_locks = set()
                for g in reg.resolve_callees(fn, c):
                    if g is fn:
                        continue
                    callee_locks |= trans_acq[id(g)] - \
                        fn_required_set(g, resolve)
                for m in callee_locks:
                    for h, _d, _a in held:
                        if h != m:
                            edges.setdefault(
                                (h, m),
                                (fn.path, c.start_line,
                                 f"in {fn.qname} via call to {c.name}()"))

    # Validate edges against the declared order; detect cycles.
    adj = {}
    for (a, b), (path, line, note) in sorted(edges.items()):
        adj.setdefault(a, set()).add(b)
        for lk in (a, b):
            if lk not in rank:
                reporter.violations.append(
                    (path, line, "lock-order",
                     f"lock '{lk}' is acquired ({note}) but not declared in "
                     f"{order_path}; add it at its ordering position"))
        if a in rank and b in rank and rank[a] >= rank[b]:
            reporter.violations.append(
                (path, line, "lock-order",
                 f"acquisition order violation: '{b}' acquired while "
                 f"holding '{a}' ({note}), but {order_path} orders "
                 f"'{b}' before '{a}'"))
    # Cycle check on the harvested graph (independent of the declared file).
    state = {}

    def dfs(u, stack):
        state[u] = 1
        for v in adj.get(u, ()):
            if state.get(v, 0) == 1:
                cyc = stack[stack.index(v):] + [v] if v in stack else [u, v]
                reporter.violations.append(
                    (order_path, 1, "lock-order",
                     "cycle in the acquisition graph: " +
                     " -> ".join(cyc)))
            elif state.get(v, 0) == 0:
                dfs(v, stack + [v])
        state[u] = 2

    for u in list(adj):
        if state.get(u, 0) == 0:
            dfs(u, [u])


_REQ_CACHE = {}


def fn_required_set(fn, resolve):
    key = id(fn)
    if key not in _REQ_CACHE:
        out = set()
        for expr in fn.required:
            # required exprs are raw strings; re-split into a chain
            chain = [p for p in re.split(r"->|\.|::", expr.replace("&", ""))
                     if p]
            lk = resolve(fn, chain)
            if lk:
                out.add(lk)
        _REQ_CACHE[key] = out
    return _REQ_CACHE[key]


# ---------------------------------------------------------------------------
# Check: sync-before-install
# ---------------------------------------------------------------------------

INSTALL_CALLS = {"LogAndApply", "SetCurrentFile"}
CREATE_CALLS = {"NewWritableFile"}
SYNC_CALLS = {"Sync", "SyncDurable"}
OUTPUT_NAME_HINTS = {"TableFileName", "DescriptorFileName", "VlogFileName"}
# Env::SubmitSync only promises a completion post, so a submission never
# counts as a sync, even though the Env's inline default body syncs.
OPAQUE_CALLS = {"SubmitSync"}


def check_sync_before_install(models, reporter, reg):
    all_funcs = reg.all_funcs

    def callees_of(fn, c):
        if c.name in OPAQUE_CALLS:
            return []
        return [g for g in reg.resolve_callees(fn, c) if g is not fn]

    def qualifying_create(fn, c):
        if any(t.kind == "id" and t.text in OUTPUT_NAME_HINTS
               for t in c.arg_tokens):
            return True
        return bool(fn.body_ids & OUTPUT_NAME_HINTS)

    # Per-function direct facts.
    syncs = {}
    installs = {}
    for fn in all_funcs:
        syncs[id(fn)] = any(c.name in SYNC_CALLS for c in fn.calls)
        installs[id(fn)] = any(c.name in INSTALL_CALLS for c in fn.calls)

    # Transitive closure over the strictly-resolved call graph.
    def closure(flag):
        changed = True
        guard = 0
        while changed and guard < 50:
            changed = False
            guard += 1
            for fn in all_funcs:
                if flag[id(fn)]:
                    continue
                for c in fn.calls:
                    if any(flag[id(g)] for g in callees_of(fn, c)):
                        flag[id(fn)] = True
                        changed = True
                        break
    t_syncs = dict(syncs)
    t_installs = dict(installs)
    closure(t_syncs)
    closure(t_installs)

    # ends_pending: fn RETURNS with a qualifying output file created but not
    # yet synced. Walking each body in call order (to fixpoint, since it
    # depends on callee summaries) is what lets a self-contained
    # create->sync->install pipeline like RunCompactions summarize as clean;
    # three order-blind closures cannot tell it from a dangling create.
    ends_pending = {id(fn): False for fn in all_funcs}
    changed = True
    guard = 0
    while changed and guard < 50:
        changed = False
        guard += 1
        for fn in all_funcs:
            pending = False
            for c in sorted(fn.calls, key=lambda c: c.index):
                callees = callees_of(fn, c)
                if c.name in CREATE_CALLS and qualifying_create(fn, c):
                    pending = True
                elif any(ends_pending[id(g)] for g in callees):
                    pending = True
                elif c.name in SYNC_CALLS or \
                        any(t_syncs[id(g)] for g in callees):
                    pending = False
            if pending != ends_pending[id(fn)]:
                ends_pending[id(fn)] = pending
                changed = True

    for fn in all_funcs:
        pending = None  # (line, what)
        for c in sorted(fn.calls, key=lambda c: c.index):
            callees = callees_of(fn, c)
            is_sync = c.name in SYNC_CALLS or \
                any(t_syncs[id(g)] for g in callees)
            is_create = (c.name in CREATE_CALLS and
                         qualifying_create(fn, c)) or \
                any(ends_pending[id(g)] for g in callees)
            is_install = c.name in INSTALL_CALLS or \
                any(t_installs[id(g)] for g in callees)
            if is_install and pending is not None:
                reporter.report(
                    reg.lexed_of[id(fn)], c.start_line,
                    "sync-before-install",
                    f"install call '{c.name}(...)' in {fn.qname} is "
                    f"reachable after an output file created at line "
                    f"{pending[0]} with no WritableFile::Sync in between; "
                    "a crash could leave a durable version pointing at a "
                    "torn table "
                    "(PR-3 invariant)")
                pending = None
            if is_sync:
                pending = None
            if is_create and c.name != fn.name:
                pending = (c.start_line, c.name)


# ---------------------------------------------------------------------------
# Check: state-transition
# ---------------------------------------------------------------------------

# The background-error state machine (DBImpl::bg_error_state_ and friends)
# is mutated only through these entry points; each must run under mutex_ so
# a transition is never interleaved with a concurrent reader of the state.
TRANSITION_CALLS = {"RecordBackgroundError", "ClearBackgroundError",
                    "TryResumeFromNoSpace", "ReturnToOk"}
TRANSITION_MUTEX = "mutex_"


def harvest_required_mutex_decls(models):
    """Names of functions whose *declaration* carries
    EXCLUSIVE_LOCKS_REQUIRED(...mutex_...).

    Definitions in .cc files do not repeat the annotation -- the
    held-on-entry fact lives only on the header declaration, which the
    parser otherwise discards (it only models definitions). Harvest the
    names straight from the token stream: find each annotation macro, read
    its lock expression, then walk backward over the parameter list to the
    declared name."""
    out = set()
    for model in models:
        toks = model.lexed.tokens
        n = len(toks)
        for j, t in enumerate(toks):
            if not (t.kind == "id" and t.text in (
                    "EXCLUSIVE_LOCKS_REQUIRED", "SHARED_LOCKS_REQUIRED")):
                continue
            if j + 1 >= n or toks[j + 1].text != "(":
                continue
            k = j + 2
            d = 1
            expr = []
            while k < n and d > 0:
                if toks[k].text == "(":
                    d += 1
                elif toks[k].text == ")":
                    d -= 1
                    if d == 0:
                        break
                expr.append(toks[k].text)
                k += 1
            if TRANSITION_MUTEX not in expr:
                continue
            # Walk backward past cv-qualifiers to the parameter list's ')'.
            k = j - 1
            while k >= 0 and toks[k].kind == "id" and toks[k].text in (
                    "const", "noexcept", "override", "final"):
                k -= 1
            if k < 0 or toks[k].text != ")":
                continue
            d = 0
            while k >= 0:
                if toks[k].text == ")":
                    d += 1
                elif toks[k].text == "(":
                    d -= 1
                    if d == 0:
                        break
                k -= 1
            k -= 1
            if k >= 0 and toks[k].kind == "id" and \
                    toks[k].text not in KEYWORDS:
                out.add(toks[k].text)
    return out


def check_state_transition(models, reporter):
    """Every call to a background-error transition function must hold
    mutex_: either the caller is itself declared
    EXCLUSIVE_LOCKS_REQUIRED(mutex_), or a MutexLock / mutex_.Lock() is
    still live at the call site. The transition functions' own
    declarations must carry the annotation so thread-safety analysis
    enforces the same rule at compile time."""
    annotated = harvest_required_mutex_decls(models)

    # Rule half 1: a defined transition function must be annotated.
    for model in models:
        for fn in model.funcs:
            if fn.name not in TRANSITION_CALLS:
                continue
            if fn.name in annotated or \
                    any(TRANSITION_MUTEX in r for r in fn.required):
                continue
            reporter.report(
                model.lexed, fn.line, "state-transition",
                f"state-transition function {fn.qname} must be declared "
                f"EXCLUSIVE_LOCKS_REQUIRED({TRANSITION_MUTEX}) so callers "
                "are checked at compile time")

    # Rule half 2: every call site holds mutex_ at the moment of the call.
    for model in models:
        for fn in model.funcs:
            sites = [c for c in fn.calls
                     if c.name in TRANSITION_CALLS and c.name != fn.name]
            if not sites:
                continue
            # held entries: (scope_depth or None for explicit, acq_depth);
            # annotation-required locks use acq_depth -1 (held on entry).
            entry_held = fn.name in annotated or \
                any(TRANSITION_MUTEX in r for r in fn.required)
            held = [(None, -1)] if entry_held else []
            events = [(e.index, "lockev", e) for e in fn.lock_events]
            events += [(c.index, "call", c) for c in sites]
            events.sort(key=lambda x: x[0])
            for _, kind, ev in events:
                if kind == "lockev":
                    if ev.kind == "return":
                        # Locks acquired inside the returning block are
                        # released on that exiting path; the fall-through
                        # never holds them.
                        held = [h for h in held if h[1] < ev.depth]
                        continue
                    if not ev.lock or ev.lock[-1] != TRANSITION_MUTEX:
                        continue
                    if ev.kind == "unlock":
                        held = []
                        continue
                    held = [h for h in held
                            if h[0] is None or h[0] <= ev.depth]
                    held.append((ev.depth if ev.kind == "scoped" else None,
                                 ev.depth))
                else:
                    c = ev
                    live = [h for h in held
                            if h[0] is None or h[0] <= c.depth]
                    if not live:
                        reporter.report(
                            model.lexed, c.start_line, "state-transition",
                            f"background-error transition '{c.name}(...)' "
                            f"called in {fn.qname} without {TRANSITION_MUTEX}"
                            " held; the state machine may race with a "
                            "concurrent reader or transition")


# ---------------------------------------------------------------------------
# Harvest pass shared by checks
# ---------------------------------------------------------------------------

def harvest_atomics(models):
    pointer_atomics = set()
    atomic_names = {}  # unit key -> set of member names
    for model in models:
        for m in model.members:
            if m.is_atomic:
                atomic_names.setdefault(
                    _unit_key(model.path), set()).add(m.name)
                if m.atomic_pointee:
                    pointer_atomics.add(m.name)
    return pointer_atomics, atomic_names


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

ALL_CHECKS = ["lock-order", "sync-before-install", "atomic-ordering",
              "guarded-by", "io-marker", "state-transition"]


def files_from_compdb(compdb_path, root):
    with open(compdb_path) as fh:
        db = json.load(fh)
    files = []
    seen = set()
    for entry in db:
        f = entry["file"]
        if not os.path.isabs(f):
            f = os.path.normpath(os.path.join(entry.get("directory", "."), f))
        rel = os.path.relpath(f, root)
        if rel.startswith("src" + os.sep) and rel not in seen:
            seen.add(rel)
            files.append(rel)
    # Headers are not compile_commands entries; pull in every src/ header so
    # member declarations (GUARDED_BY, atomics, Mutex owners) are seen.
    for dirpath, _dirs, names in os.walk(os.path.join(root, "src")):
        for nm in sorted(names):
            if nm.endswith(".h"):
                rel = os.path.relpath(os.path.join(dirpath, nm), root)
                if rel not in seen:
                    seen.add(rel)
                    files.append(rel)
    return sorted(files)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="acheron-check", description=__doc__)
    ap.add_argument("files", nargs="*", help="explicit files to check")
    ap.add_argument("--compdb", help="compile_commands.json; its src/ "
                    "entries (plus all src/ headers) become the file set")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--checks", default=",".join(ALL_CHECKS),
                    help="comma-separated subset of: " + ", ".join(ALL_CHECKS))
    ap.add_argument("--lock-order", default="tools/lock_order.txt")
    ap.add_argument("--baseline", default="tools/guarded_by_baseline.txt")
    ap.add_argument("--list-checks", action="store_true")
    ap.add_argument("--strip", metavar="FILE",
                    help="print FILE with comments and string/char literal "
                    "contents blanked (used by tools/lint.sh)")
    args = ap.parse_args(argv)

    if args.list_checks:
        for c in ALL_CHECKS:
            print(c)
        return 0

    if args.strip:
        with open(args.strip, encoding="utf-8", errors="replace") as fh:
            sys.stdout.write(lex(args.strip, fh.read()).stripped)
        return 0

    checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    bad = [c for c in checks if c not in ALL_CHECKS]
    if bad:
        print(f"acheron-check: unknown check(s): {', '.join(bad)}",
              file=sys.stderr)
        return 2

    explicit = bool(args.files)
    if explicit:
        files = args.files
    elif args.compdb:
        if not os.path.exists(args.compdb):
            print(f"acheron-check: {args.compdb} not found (configure with "
                  "cmake first: compile_commands.json is exported by the "
                  "build)", file=sys.stderr)
            return 2
        files = files_from_compdb(args.compdb, args.root)
    else:
        files = []
        for dirpath, _dirs, names in os.walk(
                os.path.join(args.root, "src")):
            for nm in sorted(names):
                if nm.endswith((".cc", ".h")):
                    files.append(os.path.relpath(
                        os.path.join(dirpath, nm), args.root))
        files.sort()
    if not files:
        print("acheron-check: no input files", file=sys.stderr)
        return 2

    models = []
    for f in files:
        path = f if os.path.isabs(f) or explicit else \
            os.path.join(args.root, f)
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                src = fh.read()
        except OSError as e:
            print(f"acheron-check: cannot read {path}: {e}", file=sys.stderr)
            return 2
        model = parse_file(lex(f if not os.path.isabs(f) else path, src))
        models.append(model)

    reporter = Reporter()
    _REQ_CACHE.clear()
    # util/mutex.h defines the locking primitives themselves; its trivial
    # wrappers must not become call-graph nodes.
    reg = Registry(models, skip_paths=("util/mutex.h",))
    if "atomic-ordering" in checks:
        pointer_atomics, atomic_names = harvest_atomics(models)
        check_atomic_ordering(models, reporter, pointer_atomics,
                              atomic_names)
    if "io-marker" in checks:
        check_io_marker(models, reporter)
    if "guarded-by" in checks:
        check_guarded_by(models, reporter, args.baseline, explicit)
    if "lock-order" in checks:
        check_lock_order(models, reporter, args.lock_order, reg)
    if "sync-before-install" in checks:
        check_sync_before_install(models, reporter, reg)
    if "state-transition" in checks:
        check_state_transition(models, reporter)

    for path, line, check, msg in sorted(reporter.violations):
        print(f"{path}:{line}: [{check}] {msg}")
    if reporter.violations:
        print(f"acheron-check: {len(reporter.violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"acheron-check: OK ({len(files)} files, "
          f"{', '.join(checks)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
