"""Rule catalogue rendering: one source of truth for rationale text.

The rationale and example-fix strings live on the rule classes
(``repro.analysis.rules``).  ``repro lint --explain RPR00N`` prints them
directly, and :func:`render_catalog` renders the identical text as the
markdown catalogue embedded in ``docs/static-analysis.md`` (a test keeps
the two in sync), so the CLI and the docs can never drift apart.
"""

from repro.analysis.rules import RULE_CLASSES, rule_by_id


def explain(rule_id):
    """The ``--explain`` text for one rule, or None if unknown."""
    rule = rule_by_id(rule_id)
    if rule is None:
        return None
    lines = [
        "%s — %s" % (rule.id, rule.title),
        "severity: %s" % rule.severity,
    ]
    if rule.scope:
        lines.append("scope   : %s" % ", ".join(rule.scope))
    else:
        lines.append("scope   : all analyzed modules")
    lines.append("")
    lines.append(rule.rationale)
    lines.append("")
    lines.append("Example:")
    lines.append("")
    for code_line in rule.example.splitlines():
        lines.append("    " + code_line if code_line else "")
    lines.append("")
    lines.append(
        "Suppress one reviewed site with `# repro: allow(%s)` on (or "
        "directly above) the offending line." % rule.id
    )
    return "\n".join(lines)


def render_catalog():
    """The rule catalogue as markdown (embedded in the docs)."""
    sections = []
    for cls in RULE_CLASSES:
        rule = cls()
        scope = (
            ", ".join("`%s`" % prefix for prefix in rule.scope)
            if rule.scope else "all analyzed modules"
        )
        lines = [
            "### %s — %s" % (rule.id, rule.title),
            "",
            "*Severity:* %s · *Scope:* %s" % (rule.severity, scope),
            "",
            rule.rationale,
            "",
            "```python",
            rule.example,
            "```",
        ]
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"
