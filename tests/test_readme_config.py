"""The README's config block shows `stta run`'s defaults."""

from pathlib import Path

import yaml

from stta import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config_block():
    section = README.read_text(encoding="utf-8").split("\n### Config file\n", 1)[1]
    return yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])


def test_config_block_is_the_defaults():
    shown, defaults = readme_config_block(), cli.load_config(None)
    assert shown["stream"]["segments"][0].pop("domain") == cli.DOMAIN_DEFAULTS
    assert defaults["stream"]["segments"][0].pop("domain") == {}  # every domain key at its default
    assert shown == defaults
