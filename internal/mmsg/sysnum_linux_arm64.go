package mmsg

import "syscall"

const sysSendmmsg = syscall.SYS_SENDMMSG
