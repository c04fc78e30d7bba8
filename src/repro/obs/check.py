"""Minimal JSON-schema-subset validator for metrics snapshots.

The container has no ``jsonschema`` dependency, so this module
implements exactly the keyword subset the checked-in schema
(``schemas/metrics_snapshot.schema.json``) uses: ``type`` (string or
list of strings), ``enum``, ``properties``, ``required``, ``items``,
``additionalProperties`` (bool or schema), ``minItems`` and
``minimum``.  Unknown keywords are ignored, like a permissive
validator.

Usable as a library (:func:`validate`) and as a command::

    python -m repro.obs.check SNAPSHOT.json schemas/metrics_snapshot.schema.json

Exit status 0 means the document conforms; 1 lists the violations.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate(instance: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """Return a list of violations of *schema* by *instance* (empty = valid)."""
    errors: List[str] = []
    expected = schema.get("type")
    if expected is not None:
        types = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[t](instance) for t in types):
            errors.append(
                f"{path}: expected type {'/'.join(types)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural keywords below assume the type held
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in enum {schema['enum']!r}")
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        minimum = schema.get("minimum")
        if minimum is not None and instance < minimum:
            errors.append(f"{path}: {instance!r} below minimum {minimum!r}")
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required property {key!r}")
        for key, value in instance.items():
            if key in properties:
                errors.extend(validate(value, properties[key], f"{path}.{key}"))
            else:
                extra = schema.get("additionalProperties", True)
                if extra is False:
                    errors.append(f"{path}: unexpected property {key!r}")
                elif isinstance(extra, dict):
                    errors.extend(validate(value, extra, f"{path}.{key}"))
    if isinstance(instance, list):
        min_items = schema.get("minItems")
        if min_items is not None and len(instance) < min_items:
            errors.append(f"{path}: fewer than {min_items} items")
        items = schema.get("items")
        if isinstance(items, dict):
            for i, value in enumerate(instance):
                errors.extend(validate(value, items, f"{path}[{i}]"))
    return errors


def validate_file(metrics_path: str, schema_path: str) -> List[str]:
    """Validate a metrics-snapshot file against a schema file."""
    with open(metrics_path) as fp:
        instance = json.load(fp)
    with open(schema_path) as fp:
        schema = json.load(fp)
    return validate(instance, schema)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point: ``check.py SNAPSHOT SCHEMA``."""
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python -m repro.obs.check SNAPSHOT.json SCHEMA.json", file=sys.stderr)
        return 2
    errors = validate_file(args[0], args[1])
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        return 1
    print(f"{args[0]}: ok")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
