/**
 * @file
 * Umbrella header for the zero-dependency POSIX TCP layer: sockets
 * (net/socket.h), length-prefixed message framing (net/frame.h), the
 * event loop under every framed endpoint (net/reactor.h) and the
 * little-endian byte codec every wire format uses (net/bytes.h).
 */
#ifndef BUCKWILD_NET_NET_H
#define BUCKWILD_NET_NET_H

#include "net/bytes.h"
#include "net/frame.h"
#include "net/reactor.h"
#include "net/socket.h"

#endif // BUCKWILD_NET_NET_H
