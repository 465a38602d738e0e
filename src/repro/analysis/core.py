"""Core object model of the static analysis framework.

The analyzer is deliberately stdlib-only: modules are parsed with
:mod:`ast`, suppression comments are recovered with :mod:`tokenize`, and
every rule works on those parse trees — nothing is ever imported or
executed.  Three ideas organize the package:

* a :class:`Finding` is one violation at one source location: rule,
  severity, path, line, enclosing symbol, message and pattern;
* a :class:`SourceModule` is one parsed file plus the metadata rules
  need: its dotted module name (for scope checks), its per-line
  ``# repro: allow(...)`` suppressions, and its parse tree;
* a :class:`Rule` declares an id, a severity, and the rationale/example
  text that is the single source of truth for both ``repro lint
  --explain`` and the rendered catalogue in ``docs/static-analysis.md``.
"""

import ast
import io
import os
import re
import tokenize

from repro.analysis.guards import parent_map
from repro.errors import AnalysisError

#: Severities, mildest first.  ``--fail-on`` compares against this order.
SEVERITIES = ("warning", "error")

#: Inline suppression syntax: ``# repro: allow(RPR001)`` or
#: ``# repro: allow(RPR001, RPR005)`` on the finding's line or the line
#: directly above it.
_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


class Finding:
    """One rule violation at one source location."""

    __slots__ = (
        "rule", "severity", "path", "module", "line", "col", "symbol",
        "message", "pattern",
    )

    def __init__(self, rule, severity, path, module, line, col, symbol,
                 message, pattern):
        if severity not in SEVERITIES:
            raise AnalysisError("unknown severity: %r" % (severity,))
        self.rule = rule
        self.severity = severity
        self.path = path
        self.module = module
        self.line = line
        self.col = col
        self.symbol = symbol
        self.message = message
        self.pattern = pattern

    def to_dict(self):
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "pattern": self.pattern,
        }

    def __repr__(self):
        return "Finding(%s %s %s:%d %s)" % (
            self.rule, self.severity, self.path, self.line, self.pattern,
        )


class SourceModule:
    """One parsed source file with the metadata rules consume."""

    __slots__ = ("abspath", "path", "name", "source", "tree",
                 "suppressions", "_parents")

    def __init__(self, abspath, path, name, source, tree, suppressions):
        self.abspath = abspath
        #: Display path: package-root relative, posix separators.
        self.path = path
        #: Dotted module name, e.g. ``repro.cluster.simulator``.
        self.name = name
        self.source = source
        self.tree = tree
        #: line number -> set of rule ids allowed on that line.
        self.suppressions = suppressions
        self._parents = None

    @property
    def parents(self):
        """``{child: parent}`` over the tree, built once and shared by
        the rules that walk ancestors (RPR002, RPR006)."""
        if self._parents is None:
            self._parents = parent_map(self.tree)
        return self._parents

    def suppressed(self, rule, line):
        """True when *rule* is allowed on *line* (or the line above)."""
        for candidate in (line, line - 1):
            if rule in self.suppressions.get(candidate, ()):
                return True
        return False


def parse_suppressions(source):
    """Extract ``# repro: allow(...)`` comments, keyed by line number."""
    suppressions = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _ALLOW_RE.search(token.string)
            if match is None:
                continue
            rules = {
                part.strip()
                for part in match.group(1).replace(",", " ").split()
                if part.strip()
            }
            if rules:
                line = token.start[0]
                suppressions.setdefault(line, set()).update(rules)
    except tokenize.TokenError:
        # A malformed tail (unterminated string) is the parser's problem;
        # keep whatever suppressions were recovered before it.
        pass
    return suppressions


def load_module(abspath, root=None):
    """Parse *abspath* into a :class:`SourceModule`.

    The dotted module name is derived from the ``__init__.py`` chain
    above the file, and the display path is relative to the directory
    containing the topmost package — so a tree scanned as ``src/repro``
    reports stable ``repro/...`` paths wherever the checkout lives.
    """
    abspath = os.path.abspath(abspath)
    with open(abspath, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=abspath)
    except SyntaxError as exc:
        raise AnalysisError("cannot parse %s: %s" % (abspath, exc))
    directory = os.path.dirname(abspath)
    stem = os.path.splitext(os.path.basename(abspath))[0]
    parts = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    parts.reverse()
    name = ".".join(parts) if parts else stem
    path = os.path.relpath(abspath, root or directory).replace(os.sep, "/")
    return SourceModule(
        abspath, path, name, source, tree, parse_suppressions(source)
    )


def package_root(abspath):
    """Directory containing the topmost package of *abspath*."""
    directory = os.path.dirname(os.path.abspath(abspath))
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory = os.path.dirname(directory)
    return directory


def enclosing_symbols(tree):
    """Map every node to its enclosing ``Class.method`` qualname."""
    symbols = {}

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            child_qualname = qualname
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                child_qualname = (
                    "%s.%s" % (qualname, child.name) if qualname
                    else child.name
                )
            symbols[child] = child_qualname or "<module>"
            visit(child, child_qualname)

    symbols[tree] = "<module>"
    visit(tree, "")
    return symbols


class Rule:
    """Base class for analysis rules.

    Subclasses set the class attributes and implement either
    :meth:`check` (per module) or :meth:`check_project` (cross-module,
    with ``project_wide = True``).
    """

    id = None
    title = None
    severity = "error"
    #: Dotted module-name prefixes the rule applies to; empty = all.
    scope = ()
    project_wide = False
    #: Rationale and example-fix text: the single source of truth reused
    #: by ``repro lint --explain`` and the generated doc catalogue.
    rationale = ""
    example = ""

    def applies(self, module):
        if not self.scope:
            return True
        name = module.name
        return any(
            name == prefix or name.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check(self, module):
        return ()

    def check_project(self, modules):
        return ()

    def finding(self, module, node, message, pattern, symbols=None,
                severity=None):
        """Build a :class:`Finding` anchored at *node* in *module*."""
        if symbols is None:
            symbols = enclosing_symbols(module.tree)
        return Finding(
            self.id,
            severity or self.severity,
            module.path,
            module.name,
            getattr(node, "lineno", 0),
            getattr(node, "col_offset", 0),
            symbols.get(node) or _symbol_at(module.tree, node),
            message,
            pattern,
        )


def _symbol_at(tree, node):
    """Fallback qualname lookup for nodes found via ``ast.walk``."""
    return enclosing_symbols(tree).get(node, "<module>")
