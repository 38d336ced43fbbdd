"""The three branches of a kernel, generated from its one source.

As C++ ``pdqsort.h`` is specialised per comparator, :func:`inline_lt`
recompiles a kernel as::

    if metrics is None:
        if lt is operator.lt: <uncounted body, each lt(a, b) written a < b>
        else: <uncounted body>
    else:
        <body as written>

The uncounted bodies drop every statement that only feeds the counters:
each ``if metrics is not None ...`` statement, and each plain ``name =
...`` or ``name += ...`` whose local is read only by dropped statements.
Those locals are the kernel's counters. A local that is also bound
another way (a parameter, a tuple or ``for`` target) is never one, and a
dropped statement must do nothing but bind its counter. All three
branches make the same comparisons in the same order; their tracebacks
name the source's lines, the inline branch's that of the ``lt(...)``
call.
"""

import __future__
import ast
import copy
import functools
import linecache
import operator

_METRICS_ON = ast.dump(ast.parse("metrics is not None", mode="eval").body)


def _feeds_metrics(node):
    """Whether ``node`` is an ``if metrics is not None ...`` statement
    with no ``else``."""
    if not isinstance(node, ast.If) or node.orelse:
        return False
    test = node.test
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        test = test.values[0]
    return ast.dump(test) == _METRICS_ON


def _plain_names(node):
    """The names a plain ``name = ...`` or ``name += ...`` binds, else None."""
    targets = [node.target] if isinstance(node, ast.AugAssign) else getattr(node, "targets", ())
    if targets and all(isinstance(t, ast.Name) for t in targets):
        return {t.id for t in targets}
    return None


def _counters(kernel_def):
    """The locals of ``kernel_def`` that only feed its counters."""
    plain = {}  # plain assignment -> the names it binds
    reads = []  # (name, the plain assignment it is read in, or None)
    other = {arg.arg for arg in ast.walk(kernel_def.args) if isinstance(arg, ast.arg)}

    def visit(node, owner):
        if _feeds_metrics(node):
            return
        if isinstance(node, ast.stmt):
            owner = None
            names = _plain_names(node)
            if names:
                plain[node] = names
                owner, node = node, node.value
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                reads.append((node.id, owner))
            else:
                other.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for node in kernel_def.body:
        visit(node, None)
    counters = set().union(*plain.values()) - other
    while True:
        live = {name for name, owner in reads if owner is None or not plain[owner] <= counters}
        if not counters & live:
            return counters
        counters -= live


def _drops(node, counters):
    """Whether the uncounted branches drop statement ``node``."""
    names = _plain_names(node)
    return _feeds_metrics(node) or bool(names) and names <= counters


def _rewrite(node, counters, inline):
    """``node`` without the statements that feed ``counters`` and, if
    ``inline``, with each ``lt(a, b)`` written ``a < b``. A subtree that
    does not change is shared, not copied: compile() only reads it."""
    if not isinstance(node, ast.AST) or not inline and isinstance(node, ast.expr):
        return node
    if inline and isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "lt":
        a, b = (_rewrite(arg, counters, inline) for arg in node.args)
        return ast.copy_location(ast.Compare(a, [ast.Lt()], [b]), node)
    fields = {}
    for name, value in ast.iter_fields(node):
        if isinstance(value, list):
            new = [_rewrite(item, counters, inline) for item in value if not _drops(item, counters)]
            if value and not new:
                new = [ast.copy_location(ast.Pass(), value[0])]
            if len(new) != len(value) or any(map(operator.is_not, new, value)):
                fields[name] = new
        elif isinstance(value, ast.AST):
            new = _rewrite(value, counters, inline)
            if new is not value:
                fields[name] = new
    if not fields:
        return node
    node = copy.copy(node)
    for name, new in fields.items():
        setattr(node, name, new)
    return node


@functools.lru_cache(maxsize=1)
def _module_tree(filename):
    """The syntax tree of one kernel module, parsed once for all of its
    kernels, which it decorates one after another."""
    return ast.parse("".join(linecache.getlines(filename)), filename)


def inline_lt(kernel):
    """Decorator: ``kernel`` with its uncounted and built-in ``<``
    branches generated. The result's ``counters`` attribute holds the
    names of the locals its uncounted branches drop."""
    filename = kernel.__code__.co_filename
    # A decorated function's code starts at its first decorator's line.
    first = kernel.__code__.co_firstlineno
    (found,) = (
        node
        for node in _module_tree(filename).body
        if isinstance(node, ast.FunctionDef)
        and node.name == kernel.__name__
        and node.decorator_list
        and node.decorator_list[0].lineno == first
    )
    # The cached tree stays as parsed: the three branches share its nodes
    # wherever they do not differ.
    start = 1 if ast.get_docstring(found) else 0
    counted = found.body[start:]
    counters = _counters(found)
    uncounted = _rewrite(ast.Module(counted, []), counters, False).body
    inline = _rewrite(ast.Module(counted, []), counters, True).body
    branch = ast.parse("if metrics is None:\n if lt is builtin_lt: 0\n else: 0\nelse: 0").body[0]
    # The branch tests sit on the def line: a line event there is no
    # statement of the body.
    for node in ast.walk(branch):
        ast.copy_location(node, found)
    branch.body[0].body, branch.body[0].orelse, branch.orelse = inline, uncounted, counted
    kernel_def = copy.copy(found)
    kernel_def.decorator_list = []
    kernel_def.body = found.body[:start] + [branch]
    # The branch test reads operator.lt from a closure cell of this factory.
    tree = ast.parse(f"def factory(builtin_lt):\n    return {kernel.__name__}")
    tree.body[0].body.insert(0, kernel_def)
    flags = kernel.__code__.co_flags & __future__.annotations.compiler_flag
    code = compile(tree, filename, "exec", flags, dont_inherit=True)
    namespace = {}
    exec(code, kernel.__globals__, namespace)
    generated = namespace["factory"](operator.lt)
    generated.__qualname__ = kernel.__qualname__
    generated.counters = frozenset(counters)
    return generated
