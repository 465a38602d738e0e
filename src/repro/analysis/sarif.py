"""SARIF 2.1.0 emitter for lint results.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest; CI uploads the file as a build artifact so findings can be
browsed per-run without re-reading the text log.  The emitter is
deliberately minimal — one run, one tool, one result per finding — but
schema-valid: ``version``/``$schema``, a driver with the full rule
catalogue (id, short description, full rationale, default level), and
per-result locations plus the stable repro fingerprint so downstream
dedup survives line churn.
"""

import json

from repro.analysis.rules import RULE_CLASSES

#: The SARIF version and schema the document declares.
VERSION = "2.1.0"
SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: repro severity -> SARIF result level.
_LEVELS = {"warning": "warning", "error": "error"}


def _driver_rules():
    rules = []
    for rule_class in RULE_CLASSES:
        rules.append({
            "id": rule_class.id,
            "name": rule_class.title,
            "shortDescription": {"text": rule_class.title},
            "fullDescription": {"text": rule_class.rationale},
            "defaultConfiguration": {
                "level": _LEVELS[rule_class.severity],
            },
        })
    return rules


def _result(finding):
    return {
        "ruleId": finding.rule,
        "level": _LEVELS[finding.severity],
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": max(finding.line, 1),
                    "startColumn": finding.col + 1,
                },
            },
            "logicalLocations": [{
                "fullyQualifiedName": "%s.%s" % (finding.module,
                                                 finding.symbol),
            }],
        }],
        "partialFingerprints": {
            "reproLint/v1": "/".join(
                str(part) for part in finding.fingerprint()
            ),
        },
    }


def sarif_report(result):
    """Render an :class:`~repro.analysis.runner.AnalysisResult` as SARIF."""
    document = {
        "$schema": SCHEMA_URI,
        "version": VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri":
                        "docs/static-analysis.md",
                    "rules": _driver_rules(),
                }
            },
            "results": [_result(f) for f in result.findings],
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
