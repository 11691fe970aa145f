package ibc

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
)

// Signature is an ID-verifiable signature: anyone holding the authority's
// root public key can verify it against the claimed signer ID alone,
// mirroring the paper's "verify SIG_{K_A^{-1}} using ID_A as the public
// key". It carries the signer's certified verification key so that no
// per-node key distribution is needed.
type Signature struct {
	SignerID NodeID
	PubKey   []byte // signer's ed25519 public key
	Cert     []byte // authority signature over (SignerID, PubKey)
	Sig      []byte // signature over the message
}

// ErrBadSignature is returned when signature verification fails for any
// reason (wrong message, forged certificate, ID mismatch).
var ErrBadSignature = errors.New("ibc: signature verification failed")

// SigBits is the paper's signature length l_sig in bits (Table I). Our
// concrete encoding differs, but protocol message sizes are computed from
// the paper's constant so that latency results match.
const SigBits = 672

// Sign signs msg with the node's certified key.
func (k *PrivateKey) Sign(msg []byte) Signature {
	signKey, cert := k.certified()
	pub := signKey.Public().(ed25519.PublicKey)
	return Signature{
		SignerID: k.id,
		PubKey:   append([]byte(nil), pub...),
		Cert:     append([]byte(nil), cert...),
		Sig:      ed25519.Sign(signKey, msg),
	}
}

// Verify checks sig over msg against the claimed signer ID, using only the
// authority root public key. It is the reference check: Verifier gives the
// same answer for every input.
func Verify(rootPub ed25519.PublicKey, claimedSigner NodeID, msg []byte, sig Signature) error {
	if err := checkSigner(claimedSigner, sig); err != nil {
		return err
	}
	if err := checkCert(rootPub, claimedSigner, sig); err != nil {
		return err
	}
	return checkMessage(claimedSigner, msg, sig)
}

// checkSigner is the structural part of a check: the signature names the
// claimed signer and carries a key ed25519 can use.
func checkSigner(claimedSigner NodeID, sig Signature) error {
	if sig.SignerID != claimedSigner {
		return fmt.Errorf("%w: signer ID %d does not match claimed %d", ErrBadSignature, sig.SignerID, claimedSigner)
	}
	if len(sig.PubKey) != ed25519.PublicKeySize {
		return fmt.Errorf("%w: bad public key length %d", ErrBadSignature, len(sig.PubKey))
	}
	return nil
}

// checkCert checks the authority's certificate binding the signer ID to
// the key; checkMessage checks the message signature under that key.
func checkCert(rootPub ed25519.PublicKey, claimedSigner NodeID, sig Signature) error {
	if !ed25519.Verify(rootPub, certPayload(claimedSigner, ed25519.PublicKey(sig.PubKey)), sig.Cert) {
		return fmt.Errorf("%w: certificate does not bind ID %d to the key", ErrBadSignature, claimedSigner)
	}
	return nil
}

func checkMessage(claimedSigner NodeID, msg []byte, sig Signature) error {
	if !ed25519.Verify(ed25519.PublicKey(sig.PubKey), msg, sig.Sig) {
		return fmt.Errorf("%w: message signature invalid for ID %d", ErrBadSignature, claimedSigner)
	}
	return nil
}

// Verifier answers as Verify does under one root key, but does the
// ed25519 work for each distinct certificate and each distinct signed
// message once: it remembers every input that verified, keyed on its
// exact bytes. Failures are never remembered, so a forged or tampered
// input always gets the full check. A Verifier is not safe for concurrent
// use.
type Verifier struct {
	rootPub ed25519.PublicKey
	certs   map[certKey]struct{}
	sigs    map[string]struct{} // certKey ‖ signature ‖ message
	scratch []byte              // reused to look a message key up without allocating
}

// certKey is a certificate check's input besides the root key: signer ID
// ‖ public key ‖ certificate.
type certKey [2 + ed25519.PublicKeySize + ed25519.SignatureSize]byte

// NewVerifier returns an empty Verifier for signatures under rootPub.
func NewVerifier(rootPub ed25519.PublicKey) *Verifier {
	return &Verifier{
		rootPub: append(ed25519.PublicKey(nil), rootPub...),
		certs:   map[certKey]struct{}{},
		sigs:    map[string]struct{}{},
	}
}

// Verify checks sig over msg against the claimed signer ID; see Verify.
func (v *Verifier) Verify(claimedSigner NodeID, msg []byte, sig Signature) error {
	// Every input that verified has a full-size certificate and signature,
	// so no other input can be in the memo, and fixed widths keep the
	// concatenated key unambiguous.
	if len(sig.Cert) != ed25519.SignatureSize || len(sig.Sig) != ed25519.SignatureSize {
		return Verify(v.rootPub, claimedSigner, msg, sig)
	}
	if err := checkSigner(claimedSigner, sig); err != nil {
		return err
	}
	var ck certKey
	binary.BigEndian.PutUint16(ck[:2], uint16(claimedSigner))
	copy(ck[2:], sig.PubKey)
	copy(ck[2+ed25519.PublicKeySize:], sig.Cert)
	v.scratch = append(append(append(v.scratch[:0], ck[:]...), sig.Sig...), msg...)
	if _, ok := v.sigs[string(v.scratch)]; ok {
		return nil
	}
	if _, ok := v.certs[ck]; !ok {
		if err := checkCert(v.rootPub, claimedSigner, sig); err != nil {
			return err
		}
		v.certs[ck] = struct{}{}
	}
	if err := checkMessage(claimedSigner, msg, sig); err != nil {
		return err
	}
	v.sigs[string(v.scratch)] = struct{}{}
	return nil
}
