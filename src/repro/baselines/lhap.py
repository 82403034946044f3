"""LHAP-style hop-by-hop token authentication (Zhu et al. [26]).

Every node owns a one-way token chain whose anchor its one-hop
neighbours learned during a (TESLA-bootstrapped, here abstracted)
join procedure. A node attaches its next undisclosed token to every
packet it originates or forwards; the downstream neighbour verifies the
token against the sender's chain with a single hash.

This authenticates *traffic origin per hop* and keeps outsiders from
injecting packets — but the token does not bind the payload, so a
compromised relay (an insider) can alter messages undetected. That gap
is the paper's core argument for end-to-end verifiable pre-signatures
(Section 2.2), and the attack benchmarks demonstrate it against this
implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction


@dataclass
class TokenChain:
    """A plain one-way chain (no role binding — LHAP predates it)."""

    elements: list[bytes]
    cursor: int

    @classmethod
    def create(cls, hash_fn: HashFunction, seed: bytes, length: int) -> "TokenChain":
        elements = [seed]
        value = seed
        for _ in range(length):
            value = hash_fn.digest(value, label="lhap-chain")
            elements.append(value)
        return cls(elements=elements, cursor=length)

    @property
    def anchor(self) -> bytes:
        return self.elements[-1]

    def next_token(self) -> bytes:
        if self.cursor < 1:
            raise RuntimeError("token chain exhausted")
        self.cursor -= 1
        return self.elements[self.cursor]


class LhapNode:
    """One node's LHAP state: own chain plus neighbour verifiers."""

    def __init__(
        self,
        name: str,
        hash_fn: HashFunction,
        rng: DRBG,
        chain_length: int = 1024,
    ) -> None:
        self.name = name
        self._hash = hash_fn
        self.chain = TokenChain.create(
            hash_fn, rng.random_bytes(hash_fn.digest_size), chain_length
        )
        # neighbour name -> last trusted token of that neighbour
        self._neighbour_tokens: dict[str, bytes] = {}
        self.accepted = 0
        self.rejected = 0

    def learn_neighbour(self, name: str, anchor: bytes) -> None:
        """Bootstrap: trust a neighbour's chain anchor."""
        self._neighbour_tokens[name] = anchor

    def attach_token(self, message: bytes) -> tuple[bytes, bytes]:
        """Originate or forward: pair the payload with our next token."""
        return message, self.chain.next_token()

    def verify_from(
        self, neighbour: str, message: bytes, token: bytes, max_gap: int = 64
    ) -> bool:
        """Check that ``token`` continues ``neighbour``'s chain.

        Note what is *not* checked: the message. LHAP tokens
        authenticate the sender, not the content.
        """
        trusted = self._neighbour_tokens.get(neighbour)
        if trusted is None:
            self.rejected += 1
            return False
        value = token
        for _ in range(max_gap):
            value = self._hash.digest(value, label="lhap-verify")
            if value == trusted:
                self._neighbour_tokens[neighbour] = token
                self.accepted += 1
                return True
        self.rejected += 1
        return False
