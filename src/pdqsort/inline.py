"""The three branches of a kernel, generated from its one source.

As C++ ``pdqsort.h`` is specialised per comparator, :func:`inline_lt`
recompiles a function written against ``lt`` and ``metrics`` (each
comparing kernel, and the sort loop) as::

    if metrics is None:
        if lt is operator.lt: <uncounted body, each lt(a, b) written a < b>
        else: <uncounted body>
    else:
        <body as written>

One rule makes the uncounted bodies: they drop every ``if metrics is not
None ...`` statement without an ``else``, and nothing else. A source
therefore bumps each counter under that guard, where the counted event
happens, and keeps no local that only feeds a counter. All three
branches make the same comparisons in the same order; their tracebacks
name the source's lines, the inline branch's that of the ``lt(...)``
call.

The source is read through the module's loader, so a package imported
from a zip is generated as from a directory. Where there is no source (a
tree of ``.pyc`` files only), the function as written serves every
call: the same results and counts, but slower, as it tests ``metrics``
at each counter statement and calls ``lt`` for every comparison.
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


def _rewrite(node, inline):
    """``node`` without its ``if metrics is not None ...`` statements and,
    if ``inline``, with each ``lt(a, b)`` written ``a < b``. A subtree that
    does not change is shared, not copied: compile() only reads it."""
    if not isinstance(node, ast.AST) or not inline and isinstance(node, ast.expr):
        return node
    if inline and isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "lt":
        a, b = (_rewrite(arg, inline) for arg in node.args)
        return ast.copy_location(ast.Compare(a, [ast.Lt()], [b]), node)
    fields = {}
    for name, value in ast.iter_fields(node):
        if isinstance(value, list):
            new = [_rewrite(item, inline) for item in value if not _feeds_metrics(item)]
            if value and not new:
                new = [ast.copy_location(ast.Pass(), value[0])]
            if len(new) != len(value) or any(map(operator.is_not, new, value)):
                fields[name] = new
        elif isinstance(value, ast.AST):
            new = _rewrite(value, inline)
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
    branches generated."""
    filename = kernel.__code__.co_filename
    # Caches the source for _module_tree, through the module's loader if
    # it is not a file on disk (a zip's loader has it; a .pyc's has not).
    linecache.getlines(filename, kernel.__globals__)
    # A decorated function's code starts at its first decorator's line.
    first = kernel.__code__.co_firstlineno
    found = [
        node
        for node in _module_tree(filename).body
        if isinstance(node, ast.FunctionDef)
        and node.name == kernel.__name__
        and node.decorator_list
        and node.decorator_list[0].lineno == first
    ]
    if not found:
        # No source: the function as written serves every call. It is
        # correct, as every counter statement in it is guarded, but slower.
        return kernel
    (found,) = found
    # The cached tree stays as parsed: the three branches share its nodes
    # wherever they do not differ.
    start = 1 if ast.get_docstring(found) else 0
    counted = found.body[start:]
    uncounted = _rewrite(ast.Module(counted, []), False).body
    inline = _rewrite(ast.Module(counted, []), True).body
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
    return generated
