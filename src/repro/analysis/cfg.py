"""Statement-level control-flow graphs for the analysis framework.

This module builds one CFG per scope — module body, function body,
class body — over which :mod:`repro.analysis.dataflow` runs forward
fixpoint analyses for the path-sensitive rule, RPR006's set types
(:class:`repro.analysis.flows.SetTypeAnalysis`).  RPR002's guard check
is syntactic and walks the AST instead (:mod:`repro.analysis.guards`).
The graph models the control flow that matters for must facts:

* branches (``if``/``elif``/``else``, ``while``/``for`` with ``else``
  clauses, ``match``), with each branch edge annotated by the test
  expression and its polarity;
* loops, including ``break``/``continue`` and back edges;
* early exits: ``return`` and ``raise`` edges leave through distinct
  exit blocks (``exit`` for normal completion, ``raise_exit`` for
  propagating exceptions), so "on every path to function exit" has a
  precise meaning;
* ``try``/``except``/``else``/``finally``: exception edges connect every
  block of a ``try`` body to its handlers, and every abrupt exit from
  inside a ``try`` (return/break/continue/raise) flows through a
  *duplicate* of each enclosing ``finally`` body before reaching its
  target — the duplication keeps the normal-completion path's facts
  separate from the abrupt paths', which is what makes facts through
  ``try/finally`` precise instead of merely conservative.

Nested function and class bodies are **not** inlined: they execute at
another time, so each is its own scope/CFG (see
:func:`repro.analysis.dataflow.iter_scopes`).  Their ``def`` statement
appears in the enclosing graph as an ordinary element (defaults and
decorators evaluate in the enclosing scope).

Blocks hold a list of *elements* — ``(kind, node)`` pairs — rather than
raw statements, so analyses see evaluation order without re-deriving it:

``("stmt", node)``
    a simple statement executed in full (includes ``Return``/``Raise``,
    whose outgoing edges the graph already encodes);
``("test", expr)``
    a branch test evaluated at the end of the block; outgoing edges
    carry ``(polarity, expr)``;
``("expr", expr)``
    a bare expression evaluated for control flow (loop iterables,
    ``with`` context managers, ``match`` subjects);
``("bind", target)``
    a name-binding event that invalidates facts about the target (loop
    targets, ``with ... as`` vars, ``except ... as`` names).
"""

import ast

#: Edge polarity marking an exception edge (source may have executed
#: only partially; dataflow joins the block's entry and exit facts).
EXC = "exc"


class Block:
    """One basic block: straight-line elements plus annotated edges."""

    __slots__ = ("id", "elems", "succ")

    def __init__(self, block_id):
        self.id = block_id
        self.elems = []
        #: Outgoing edges: ``(block, polarity, test)`` with polarity one
        #: of None (unconditional), True/False (branch), or :data:`EXC`.
        self.succ = []

    def __repr__(self):
        return "Block(%d, %d elems, -> %s)" % (
            self.id, len(self.elems), [b.id for b, _, _ in self.succ],
        )


class CFG:
    """The graph of one scope: entry, blocks, and the two exits."""

    __slots__ = ("entry", "exit", "raise_exit", "blocks")

    def __init__(self, entry, exit_block, raise_exit, blocks):
        self.entry = entry
        #: Normal completion: every ``return`` and the body's fall-off.
        self.exit = exit_block
        #: Exception propagation out of the scope.
        self.raise_exit = raise_exit
        self.blocks = blocks


def build_cfg(body):
    """Build the CFG of one scope *body* (a list of statements)."""
    return _Builder().build(body)


class _LoopFrame:
    __slots__ = ("head", "after")

    def __init__(self, head, after):
        self.head = head
        self.after = after


class _FinallyFrame:
    __slots__ = ("stmts",)

    def __init__(self, stmts):
        self.stmts = stmts


class _Builder:
    """Single-pass recursive CFG construction.

    ``visit_body`` threads the "current" block through the statement
    list and returns the block where control falls off the end, or None
    when every path already left (return/raise/break/continue).
    """

    def __init__(self):
        self.blocks = []
        self.exit = self._new()
        self.raise_exit = self._new()

    # -- plumbing ------------------------------------------------------
    def _new(self):
        block = Block(len(self.blocks))
        self.blocks.append(block)
        return block

    @staticmethod
    def _edge(src, dst, polarity=None, test=None):
        src.succ.append((dst, polarity, test))

    def build(self, body):
        entry = self._new()
        end = self.visit_body(body, entry, ())
        if end is not None:
            self._edge(end, self.exit)
        return CFG(entry, self.exit, self.raise_exit, self.blocks)

    # -- statement dispatch --------------------------------------------
    def visit_body(self, body, cur, context):
        for stmt in body:
            if cur is None:
                # Unreachable code after an unconditional exit; build it
                # anyway (rules still scan it) on a detached block.
                cur = self._new()
            cur = self.visit_stmt(stmt, cur, context)
        return cur

    def visit_stmt(self, stmt, cur, context):
        if isinstance(stmt, ast.If):
            return self._visit_if(stmt, cur, context)
        if isinstance(stmt, ast.While):
            return self._visit_while(stmt, cur, context)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._visit_for(stmt, cur, context)
        if isinstance(stmt, ast.Try) or stmt.__class__.__name__ == "TryStar":
            return self._visit_try(stmt, cur, context)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._visit_with(stmt, cur, context)
        if isinstance(stmt, ast.Match):
            return self._visit_match(stmt, cur, context)
        if isinstance(stmt, ast.Return):
            cur.elems.append(("stmt", stmt))
            self._abrupt_exit(cur, context, self.exit, through_all=True)
            return None
        if isinstance(stmt, ast.Raise):
            cur.elems.append(("stmt", stmt))
            self._abrupt_exit(cur, context, self.raise_exit,
                              through_all=True)
            return None
        if isinstance(stmt, ast.Break):
            loop, finallies = self._innermost_loop(context)
            if loop is not None:
                self._abrupt_chain(cur, finallies, loop.after)
            return None
        if isinstance(stmt, ast.Continue):
            loop, finallies = self._innermost_loop(context)
            if loop is not None:
                self._abrupt_chain(cur, finallies, loop.head)
            return None
        # Simple statement: straight-line element.
        cur.elems.append(("stmt", stmt))
        return cur

    # -- structured statements -----------------------------------------
    def _visit_if(self, stmt, cur, context):
        cur.elems.append(("test", stmt.test))
        after = self._new()
        then_entry = self._new()
        self._edge(cur, then_entry, True, stmt.test)
        then_end = self.visit_body(stmt.body, then_entry, context)
        if then_end is not None:
            self._edge(then_end, after)
        if stmt.orelse:
            else_entry = self._new()
            self._edge(cur, else_entry, False, stmt.test)
            else_end = self.visit_body(stmt.orelse, else_entry, context)
            if else_end is not None:
                self._edge(else_end, after)
        else:
            self._edge(cur, after, False, stmt.test)
        return after

    def _visit_while(self, stmt, cur, context):
        head = self._new()
        after = self._new()
        self._edge(cur, head)
        head.elems.append(("test", stmt.test))
        body_entry = self._new()
        self._edge(head, body_entry, True, stmt.test)
        loop_context = context + (_LoopFrame(head, after),)
        body_end = self.visit_body(stmt.body, body_entry, loop_context)
        if body_end is not None:
            self._edge(body_end, head)
        # ``while True:`` (any constant-truthy test) can only exit via
        # break — modelling the false edge would leak facts down an
        # impossible path (the generated bulk kernels are while-True
        # driver loops whose every real exit is a return).
        exhausts = not (isinstance(stmt.test, ast.Constant)
                       and stmt.test.value)
        if stmt.orelse:
            # else runs only when the loop exhausts (test false), and is
            # skipped by break — which already targets ``after``.
            if exhausts:
                else_entry = self._new()
                self._edge(head, else_entry, False, stmt.test)
                else_end = self.visit_body(stmt.orelse, else_entry,
                                           context)
                if else_end is not None:
                    self._edge(else_end, after)
        elif exhausts:
            self._edge(head, after, False, stmt.test)
        return after

    def _visit_for(self, stmt, cur, context):
        # The iterable is evaluated once, in the current block; the
        # whole For node rides along so iteration-order rules can pair
        # the iterable's type with the loop body.
        cur.elems.append(("loop-iter", stmt))
        head = self._new()
        after = self._new()
        self._edge(cur, head)
        # The loop target rebinds on every iteration — including the
        # iteration that discovers exhaustion never happened, so the
        # invalidation sits in the head where both edges see it.
        head.elems.append(("bind", stmt.target))
        body_entry = self._new()
        self._edge(head, body_entry)
        loop_context = context + (_LoopFrame(head, after),)
        body_end = self.visit_body(stmt.body, body_entry, loop_context)
        if body_end is not None:
            self._edge(body_end, head)
        if stmt.orelse:
            else_entry = self._new()
            self._edge(head, else_entry)
            else_end = self.visit_body(stmt.orelse, else_entry, context)
            if else_end is not None:
                self._edge(else_end, after)
        else:
            self._edge(head, after)
        return after

    def _visit_with(self, stmt, cur, context):
        for item in stmt.items:
            cur.elems.append(("expr", item.context_expr))
            if item.optional_vars is not None:
                cur.elems.append(("bind", item.optional_vars))
        return self.visit_body(stmt.body, cur, context)

    def _visit_match(self, stmt, cur, context):
        cur.elems.append(("expr", stmt.subject))
        after = self._new()
        exhaustive = False
        for case in stmt.cases:
            case_entry = self._new()
            self._edge(cur, case_entry)
            for name in _pattern_names(case.pattern):
                case_entry.elems.append(
                    ("bind", ast.Name(id=name, ctx=ast.Store()))
                )
            if case.guard is not None:
                case_entry.elems.append(("test", case.guard))
            case_end = self.visit_body(case.body, case_entry, context)
            if case_end is not None:
                self._edge(case_end, after)
            if _is_wildcard(case.pattern) and case.guard is None:
                exhaustive = True
        if not exhaustive:
            self._edge(cur, after)
        return after

    def _visit_try(self, stmt, cur, context):
        handlers = getattr(stmt, "handlers", [])
        finalbody = stmt.finalbody
        after = self._new()

        handler_entries = [self._new() for _ in handlers]
        body_entry = self._new()
        self._edge(cur, body_entry)

        body_context = context
        if finalbody:
            body_context = body_context + (_FinallyFrame(finalbody),)
        first_body_block = len(self.blocks)
        body_end = self.visit_body(stmt.body, body_entry, body_context)
        body_blocks = [body_entry] + self.blocks[first_body_block:]

        # An exception can surface at any point in the try body: edge
        # every body block into every handler (dataflow joins the
        # block's entry and exit facts across an EXC edge).
        for block in body_blocks:
            for entry in handler_entries:
                self._edge(block, entry, EXC)
            if not handlers and finalbody:
                # No handler: the exception runs the finally body and
                # propagates.  Duplicate finalbody on the exception path
                # so its facts never merge into normal completion.
                exc_final = self._new()
                self._edge(block, exc_final, EXC)
                exc_end = self.visit_body(list(finalbody), exc_final,
                                          context)
                if exc_end is not None:
                    self._edge(exc_end, self.raise_exit)

        # Normal completion of the body: else clause, then finally.
        if body_end is not None:
            if stmt.orelse:
                body_end = self.visit_body(stmt.orelse, body_end,
                                           body_context)
            if body_end is not None:
                if finalbody:
                    body_end = self.visit_body(list(finalbody), body_end,
                                               context)
                if body_end is not None:
                    self._edge(body_end, after)

        # Handlers: bind the exception name, run the body, then the
        # finally body (its own duplicate per handler path).
        for handler, entry in zip(handlers, handler_entries):
            if handler.name:
                entry.elems.append(
                    ("bind", ast.Name(id=handler.name, ctx=ast.Store()))
                )
            handler_context = context
            if finalbody:
                handler_context = handler_context \
                    + (_FinallyFrame(finalbody),)
            handler_end = self.visit_body(handler.body, entry,
                                          handler_context)
            if handler_end is not None:
                if finalbody:
                    handler_end = self.visit_body(list(finalbody),
                                                  handler_end, context)
                if handler_end is not None:
                    self._edge(handler_end, after)
        return after

    # -- abrupt-exit plumbing ------------------------------------------
    @staticmethod
    def _innermost_loop(context):
        """The closest loop frame plus the finallies inside it."""
        finallies = []
        for frame in reversed(context):
            if isinstance(frame, _LoopFrame):
                return frame, finallies
            finallies.append(frame)
        return None, finallies

    def _abrupt_exit(self, cur, context, target, through_all=False):
        """Route return/raise through every enclosing finally body."""
        finallies = [f for f in reversed(context)
                     if isinstance(f, _FinallyFrame)]
        self._abrupt_chain(cur, finallies, target)

    def _abrupt_chain(self, cur, finallies, target):
        """Chain duplicated finally bodies from *cur* to *target*."""
        for frame in finallies:
            if not isinstance(frame, _FinallyFrame):
                continue
            entry = self._new()
            self._edge(cur, entry)
            end = self.visit_body(list(frame.stmts), entry, ())
            if end is None:
                return  # the finally body itself left (return/raise)
            cur = end
        self._edge(cur, target)


def _pattern_names(pattern):
    """Names bound by a match-case pattern (facts to invalidate)."""
    names = []
    for node in ast.walk(pattern):
        if isinstance(node, (ast.MatchAs, ast.MatchStar)) \
                and node.name is not None:
            names.append(node.name)
        elif isinstance(node, ast.MatchMapping) and node.rest is not None:
            names.append(node.rest)
    return names


def _is_wildcard(pattern):
    return isinstance(pattern, ast.MatchAs) and pattern.pattern is None
