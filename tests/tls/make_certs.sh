#!/bin/sh
# Writes the TLS fixtures of the transport tests: a test CA (ca.crt) and a
# certificate for localhost, 127.0.0.1 and ::1 that it signed
# (localhost.crt, localhost.key). The CA's key is thrown away. Needs only
# the openssl command; run from any directory.
set -eu
cd "$(dirname "$0")"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
    -days 36500 -subj "/CN=gmas-harness test CA" \
    -addext "basicConstraints=critical,CA:TRUE" \
    -addext "keyUsage=critical,keyCertSign,cRLSign" \
    -keyout "$work/ca.key" -out ca.crt
openssl req -new -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
    -subj "/CN=localhost" -keyout localhost.key -out "$work/localhost.csr"
cat > "$work/leaf.ext" <<'EXT'
basicConstraints=critical,CA:FALSE
keyUsage=critical,digitalSignature
extendedKeyUsage=serverAuth
subjectAltName=DNS:localhost,IP:127.0.0.1,IP:::1
authorityKeyIdentifier=keyid
subjectKeyIdentifier=hash
EXT
openssl x509 -req -in "$work/localhost.csr" -CA ca.crt -CAkey "$work/ca.key" \
    -CAcreateserial -CAserial "$work/ca.srl" -days 36500 \
    -extfile "$work/leaf.ext" -out localhost.crt
chmod 644 localhost.key
