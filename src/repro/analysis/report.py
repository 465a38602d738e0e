"""Reporters: human-readable text and machine-readable JSON."""

import json

#: JSON report schema identifier.
SCHEMA = "repro-lint/2"


def summary_line(result):
    parts = [
        "%d finding%s" % (len(result.findings),
                          "" if len(result.findings) == 1 else "s"),
        "(%d error%s, %d warning%s)" % (
            result.count("error"),
            "" if result.count("error") == 1 else "s",
            result.count("warning"),
            "" if result.count("warning") == 1 else "s",
        ),
        "in %d files" % result.files_scanned,
    ]
    if result.suppressed:
        parts.append("— %d suppressed inline" % result.suppressed)
    return " ".join(parts)


def text_report(result):
    """The human-readable report, one line per finding plus a summary."""
    lines = []
    for finding in result.findings:
        lines.append(
            "%s:%d:%d: %s %s [%s] %s"
            % (
                finding.path, finding.line, finding.col + 1,
                finding.rule, finding.severity, finding.symbol,
                finding.message,
            )
        )
    if lines:
        lines.append("")
    lines.append(summary_line(result))
    return "\n".join(lines)


def json_report(result):
    """The machine-readable report (stable key order)."""
    document = {
        "schema": SCHEMA,
        "files_scanned": result.files_scanned,
        "findings": [finding.to_dict() for finding in result.findings],
        "summary": {
            "errors": result.count("error"),
            "warnings": result.count("warning"),
            "suppressed": result.suppressed,
        },
    }
    return json.dumps(document, indent=2, sort_keys=True)
